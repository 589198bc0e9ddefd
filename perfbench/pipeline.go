package main

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"time"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/lang"
	"transit/internal/mc"
	"transit/internal/obs"
	"transit/internal/synth"
)

// The pipeline runs with the options `transit` uses when no flag is
// given: expression size bound 12, a 2,000,000-state budget, deadlock
// checking, symmetry reduction, and one model-checker frontier worker per
// usable CPU. No optional knob (portfolio, enumeration workers,
// no-incremental) is set.
const (
	maxSize   = 12
	maxStates = 2_000_000
)

func cliLimits() synth.Limits { return synth.Limits{MaxSize: maxSize} }

func cliMCOptions() mc.Options {
	return mc.Options{
		MaxStates:         maxStates,
		CheckDeadlock:     true,
		Workers:           runtime.GOMAXPROCS(0),
		SymmetryReduction: true,
	}
}

// The wrappers below record the benchmark's span around each call into a
// layer's public entry point.

func buildSource(ctx context.Context, src string, n int) (*lang.Protocol, error) {
	_, sp := obs.Start(ctx, "lang.Build")
	defer sp.End()
	return lang.Build(src, n)
}

func complete(ctx context.Context, sys *efsm.System, vocab *expr.Vocabulary, snippets []*efsm.Snippet, limits synth.Limits) (*core.Report, error) {
	ctx, sp := obs.Start(ctx, "core.CompleteCtx")
	defer sp.End()
	return core.CompleteCtx(ctx, sys, vocab, snippets, core.Options{Limits: limits})
}

func newRuntime(ctx context.Context, sys *efsm.System) (*efsm.Runtime, error) {
	_, sp := obs.Start(ctx, "efsm.NewRuntime")
	defer sp.End()
	return efsm.NewRuntime(sys)
}

func check(ctx context.Context, tr *tracing, rt *efsm.Runtime, invs []mc.Invariant, opts mc.Options) (*mc.Result, error) {
	tr.checkStarted()
	ctx, sp := obs.Start(ctx, "mc.CheckCtx")
	res, err := mc.CheckCtx(ctx, rt, invs, opts)
	sp.End()
	tr.checkDone(res)
	return res, err
}

// unitBench is what the two sequential workloads share: one caller
// timing units of work (a case-study iteration, a protocol check) through
// the pipeline, and checking each one's verdict, work counts and
// counterexample.
type unitBench struct {
	tr   *tracing
	ctx  context.Context
	sess *obs.Session
	book *countBook
	// replayed holds, per unit of work, the outcome of replaying its
	// first counterexample (later repetitions must match its counts).
	replayed map[string]error
}

func newUnitBench(ctx context.Context, cfg config, tr *tracing) (*unitBench, error) {
	ctx, sess, err := tr.context(ctx)
	if err != nil {
		return nil, err
	}
	book, err := loadCountBook(filepath.Join(cfg.outDir, "counts-"+cfg.workload+".json"))
	if err != nil {
		return nil, errors.Join(err, closeSession(sess))
	}
	return &unitBench{tr: tr, ctx: ctx, sess: sess, book: book, replayed: map[string]error{}}, nil
}

// unitRun is what one pass through the pipeline hands back for checking.
type unitRun struct {
	res  *mc.Result
	rep  *core.Report
	rt   *efsm.Runtime
	invs []mc.Invariant
}

// measure times one operation, pipeline, under a root span and records
// it. It reports whether the operation was correct: want accepts its
// check result, its work counts repeat those of the unit's earlier
// repetitions, and its counterexample, if any, replays. The system is
// rebuilt by the next operation, so the replay runs now, once per unit.
func (u *unitBench) measure(rec *recorder, unit string, pipeline func(context.Context) (unitRun, error), want func(*mc.Result) error) bool {
	conflicts := u.tr.counterNow("sat.conflicts")
	freshHeap()
	start := time.Now()
	ctx, op := obs.Start(u.ctx, opSpan, obs.Str("unit", unit))
	r, err := pipeline(ctx)
	op.End()
	lat := time.Since(start)
	if err != nil {
		rec.fail("%s: %v", unit, err)
		rec.op(lat, false)
		return false
	}
	ok := true
	if err := want(r.res); err != nil {
		rec.fail("%s: %v", unit, err)
		ok = false
	}
	counts := countsOf(r.rep, r.res)
	if conflicts >= 0 {
		counts.SATConflicts = u.tr.counterNow("sat.conflicts") - conflicts
	}
	if err := u.book.check(unit, counts); err != nil {
		rec.fail("%v", err)
		ok = false
	}
	if v := r.res.Violation; v != nil {
		err, done := u.replayed[unit]
		if !done {
			err = replayViolation(r.rt, r.invs, v)
			u.replayed[unit] = err
		}
		if err != nil {
			rec.fail("%s: counterexample replay: %v", unit, err)
			ok = false
		}
	}
	rec.op(lat, ok)
	return ok
}

func (u *unitBench) verify(rec *recorder) {
	if err := u.book.save(); err != nil {
		rec.fail("saving work counts: %v", err)
	}
}

func (u *unitBench) close() error { return closeSession(u.sess) }

// freshHeap collects the previous operation's garbage before the next
// one starts, as a fresh `transit` process would begin, so that one
// operation's heap growth does not depend on its predecessor's.
func freshHeap() { runtime.GC() }

func closeSession(s *obs.Session) error {
	if s == nil {
		return nil
	}
	return s.Close()
}
