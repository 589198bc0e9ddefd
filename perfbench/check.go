package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/mc"
)

// replayViolation re-executes a counterexample step by step on the
// runtime, without the model checker: every action must be enabled where
// the trace takes it, and the last state must show the reported problem.
func replayViolation(rt *efsm.Runtime, invs []mc.Invariant, v *mc.Violation) error {
	st := rt.Initial()
	for i, a := range v.Actions() {
		acts, _ := rt.Actions(st)
		next := (*efsm.State)(nil)
		for _, b := range acts {
			if b.Inst == a.Inst && b.Trans == a.Trans && b.Net == a.Net && b.Slot == a.Slot && b.Pos == a.Pos {
				next = rt.Apply(st, b)
				break
			}
		}
		if next == nil {
			return fmt.Errorf("trace step %d (%s) is not enabled", i+1, rt.FormatAction(a))
		}
		st = next
	}
	acts, probs := rt.Actions(st)
	switch v.Kind {
	case mc.InvariantViolation:
		for _, inv := range invs {
			if inv.Name == v.Name {
				if ok, _ := inv.Check(rt, st); ok {
					return fmt.Errorf("invariant %s holds at the end of its counterexample", v.Name)
				}
				return nil
			}
		}
		return fmt.Errorf("counterexample names unknown invariant %q", v.Name)
	case mc.Deadlock:
		if len(acts) > 0 {
			return fmt.Errorf("deadlock trace ends in a state with %d enabled actions", len(acts))
		}
	case mc.SemanticsProblem:
		if len(probs) == 0 {
			return fmt.Errorf("semantics-problem trace ends in a state without a problem")
		}
	}
	return nil
}

// workCounts are the deterministic work counters of one unit of work
// (one case-study iteration, one protocol check). SATConflicts is -1 when
// the run is untraced, since only the metrics registry publishes it.
type workCounts struct {
	States       int   `json:"mc_states"`
	Transitions  int   `json:"mc_transitions"`
	Candidates   int64 `json:"synth_candidates"`
	SMTQueries   int   `json:"smt_queries"`
	SATConflicts int64 `json:"sat_conflicts"`
	Jobs         int   `json:"engine_jobs"`
}

// countsOf reads a unit's counts from its completion report and check
// result.
func countsOf(rep *core.Report, res *mc.Result) workCounts {
	return workCounts{
		States: res.States, Transitions: res.Transitions,
		Candidates: rep.UpdateExprsTried + rep.GuardExprsTried,
		SMTQueries: rep.SMTQueries, Jobs: rep.Jobs,
		SATConflicts: -1,
	}
}

// countBook checks that every repetition of a unit of work — within this
// run and across earlier runs of the same code, whatever their seed —
// reports identical work counts. Its file lives in the output directory,
// which run.py names by a hash of the sources, so runs of different code
// never compare counts.
type countBook struct {
	path   string
	mu     sync.Mutex
	counts map[string]workCounts
}

func loadCountBook(path string) (*countBook, error) {
	b := &countBook{path: path, counts: map[string]workCounts{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &b.counts); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// check compares c with the unit's recorded counts and records it.
func (b *countBook) check(unit string, c workCounts) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	old, ok := b.counts[unit]
	if !ok {
		b.counts[unit] = c
		return nil
	}
	cmp := c
	if old.SATConflicts < 0 || c.SATConflicts < 0 {
		cmp.SATConflicts = old.SATConflicts
	}
	if cmp != old {
		return fmt.Errorf("%s: work counts %+v differ from an earlier repetition's %+v", unit, c, old)
	}
	if old.SATConflicts < 0 {
		b.counts[unit] = c
	}
	return nil
}

func (b *countBook) save() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, err := json.MarshalIndent(b.counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.path, data, 0o644)
}
