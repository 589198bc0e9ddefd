// Package mc is an explicit-state model checker for efsm systems, playing
// the role Murϕ plays in the paper's methodology: it enumerates the
// reachable state space of a finite protocol instance by breadth-first
// search over canonically hashed states, checks safety invariants and
// execution-semantics rules (unexpected messages, guard determinism) at
// every state, and reconstructs a shortest counterexample trace when a
// violation is found.
//
// The search runs in depth-synchronized rounds over a hash-sharded
// visited set (see frontier.go), optionally canonicalizing states under
// permutation of the symmetric process IDs (see efsm.SymGroup), so both
// the worker count and the symmetry reduction change only the wall-clock,
// never the Result: budgets, counters, and counterexample traces are
// worker-count-invariant by construction.
package mc

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transit/internal/efsm"
	"transit/internal/obs"
)

// Invariant is a named safety property over global states. When symmetry
// reduction is on, invariants must themselves be PID-symmetric (hold on a
// state iff they hold on every PID permutation of it) — all coherence
// properties of interest (SWMR, at-most-one-owner) are.
type Invariant struct {
	Name string
	// Check returns ok, or false with a human-readable detail.
	Check func(r *efsm.Runtime, st *efsm.State) (bool, string)
}

// Options bounds the search.
type Options struct {
	// MaxStates caps explored states (0 = 1,000,000). With symmetry
	// reduction on, the cap counts canonical states.
	MaxStates int
	// MaxDepth caps BFS depth (0 = unbounded).
	MaxDepth int
	// CheckDeadlock reports states with no enabled action as violations.
	CheckDeadlock bool
	// ProgressInterval paces the mc.progress heartbeat marks (states,
	// states/sec, queue depth). 0 means the 1s default; negative disables
	// heartbeats. Marks are emitted both from the BFS round loop (paced by
	// state count) and from a wall-clock ticker, so protocols with slow
	// transition or invariant functions still heartbeat on time.
	ProgressInterval time.Duration
	// Workers is the number of frontier workers (0 or 1 = sequential).
	// Results are identical for every worker count.
	Workers int
	// SymmetryReduction canonicalizes states under permutation of the
	// replicated process IDs, exploring one representative per orbit.
	// It silently disables itself (Result.SymmetryApplied reports the
	// outcome) when the system is not PID-symmetric — a PID or partial-set
	// literal in a transition, an Asymmetric process definition, fewer
	// than 2 or more than efsm.MaxSymmetryPIDs caches.
	SymmetryReduction bool
}

// ViolationKind classifies a counterexample.
type ViolationKind int

const (
	// InvariantViolation: a safety invariant failed.
	InvariantViolation ViolationKind = iota
	// SemanticsProblem: an unexpected message or nondeterministic guard
	// set (the protocol is underspecified or overspecified).
	SemanticsProblem
	// Deadlock: a state with no enabled action.
	Deadlock
)

func (k ViolationKind) String() string {
	switch k {
	case InvariantViolation:
		return "invariant violation"
	case SemanticsProblem:
		return "semantics problem"
	default:
		return "deadlock"
	}
}

// TraceStep is one step of a counterexample: the action taken and the
// state reached.
type TraceStep struct {
	Action string // empty for the initial state
	State  string
}

// Violation describes a counterexample. Traces are always rendered in the
// original PID frame: when symmetry reduction found the violation on a
// canonical representative, the path replays through the retained
// permutations so every step is a genuine execution of the input system.
type Violation struct {
	Kind   ViolationKind
	Name   string // invariant name or problem kind
	Detail string
	Trace  []TraceStep
	// actions is the structured action path, retained for the
	// message-sequence-chart renderer (FormatMSC).
	actions []efsm.Action
}

// Actions exposes the structured action path of the counterexample (the
// input to FormatMSC and to replay tooling).
func (v *Violation) Actions() []efsm.Action { return v.actions }

// StepRef identifies the transition taken at one step of a violation
// trace in join-key terms: which process definition, from which control
// state, on which event. The provenance ledger uses these keys to
// back-link a failing path to the records of every synthesized
// expression that fired along it.
type StepRef struct {
	Index   int    // index into Trace (step 0 is the initial state)
	Process string // process definition name
	PID     int
	From    string
	Event   string // efsm.Event.Key()
	To      string
}

// StepRefs resolves the structured action path against a runtime built
// over the same system (instance indices and transition pointers are
// runtime-relative). One ref is produced per action, indexed to match
// the corresponding Trace step.
func (v *Violation) StepRefs(r *efsm.Runtime) []StepRef {
	refs := make([]StepRef, 0, len(v.actions))
	for i, a := range v.actions {
		ref := StepRef{Index: i + 1, PID: -1}
		if r != nil && a.Inst >= 0 && a.Inst < len(r.Insts) {
			inst := r.Insts[a.Inst]
			ref.Process = inst.Def.Name
			ref.PID = inst.PID
		}
		if a.Trans != nil {
			ref.From = a.Trans.From
			ref.Event = a.Trans.Event.Key()
			ref.To = a.Trans.To
		}
		refs = append(refs, ref)
	}
	return refs
}

func (v *Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n  %s\n", v.Kind, v.Name, v.Detail)
	for i, step := range v.Trace {
		if step.Action == "" {
			fmt.Fprintf(&sb, "  [%d] (initial) %s\n", i, step.State)
		} else {
			fmt.Fprintf(&sb, "  [%d] %s\n      -> %s\n", i, step.Action, step.State)
		}
	}
	return sb.String()
}

// Result is the outcome of a model-checking run.
type Result struct {
	// OK is true when the search completed (within bounds) with no
	// violation.
	OK bool
	// Complete is true when the full reachable space was explored (no
	// depth cut, no budget abort, no cancellation).
	Complete bool
	// States counts explored states — canonical representatives when
	// symmetry reduction applied, concrete states otherwise.
	States      int
	Transitions int
	Depth       int
	Violation   *Violation
	// Elapsed is the wall-clock duration of the search; StatesPerSec is
	// the exploration rate States/Elapsed (0 for instantaneous runs).
	Elapsed      time.Duration
	StatesPerSec float64
	// SymmetryApplied reports whether symmetry reduction was actually in
	// effect (requested and the system qualified).
	SymmetryApplied bool
	// CanonicalStates mirrors States under symmetry reduction: the number
	// of orbit representatives explored.
	CanonicalStates int
	// ReductionFactor estimates how many concrete states each explored
	// state stood for: the mean orbit size (1 when reduction was off).
	ReductionFactor float64
	// ShardStates is the per-shard visited-set occupancy (the sharding is
	// worker-count-independent, so this too is deterministic).
	ShardStates []int
	// VisitedBytes is the memory the visited set retains: every shard's
	// key arena, open-addressing table and edges, at their allocated
	// capacity. It too is worker-count-independent.
	VisitedBytes int64
}

// Check explores the reachable states of the runtime and verifies the
// invariants. It returns the first (BFS-shortest) violation found.
func Check(r *efsm.Runtime, invs []Invariant, opts Options) (*Result, error) {
	return CheckCtx(context.Background(), r, invs, opts)
}

// CheckCtx is Check under a context: the search polls the context every
// round (and workers poll it during long expansions), so long-running
// searches are cancellable and honor deadlines the same way the
// Options.MaxStates budget bounds them. On cancellation the partial
// Result (states explored so far) is returned alongside the context's
// error.
func CheckCtx(ctx context.Context, r *efsm.Runtime, invs []Invariant, opts Options) (*Result, error) {
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 1_000_000
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	var group *efsm.SymGroup
	if opts.SymmetryReduction {
		// Auto-disable on systems that do not qualify: the checker still
		// answers, just without the reduction.
		if g, err := efsm.NewSymGroup(r); err == nil {
			group = g
		}
	}
	res := &Result{SymmetryApplied: group != nil}
	ctx, span := obs.Start(ctx, "mc.bfs",
		obs.Int("max_states", maxStates), obs.Int("max_depth", opts.MaxDepth),
		obs.Int("workers", workers), obs.Bool("symmetry", group != nil))
	start := time.Now()
	// repStates/repTransitions/repOrbit track what the heartbeat has
	// already published to the metrics registry, so running updates and
	// the final settle add exact deltas instead of double-counting.
	var repStates, repTransitions, repOrbit atomic.Int64
	var seen *visited
	var orbitSum int64
	// expandDur, mergeDur and checkDur sum the wall time of phases A, B
	// and C over all rounds.
	var expandDur, mergeDur, checkDur time.Duration
	defer func() {
		res.Elapsed = time.Since(start)
		if secs := res.Elapsed.Seconds(); secs > 0 {
			res.StatesPerSec = float64(res.States) / secs
		}
		res.CanonicalStates = res.States
		if res.States > 0 {
			res.ReductionFactor = float64(orbitSum) / float64(res.States)
		}
		if seen != nil {
			res.ShardStates = seen.counts()
			res.VisitedBytes = seen.bytes()
		}
		span.SetAttr(obs.Int("states", res.States),
			obs.Int("transitions", res.Transitions),
			obs.Int("depth", res.Depth),
			obs.Bool("ok", res.OK),
			obs.Bool("complete", res.Complete),
			obs.Float("states_per_sec", res.StatesPerSec),
			obs.Int("canonical_states", res.CanonicalStates),
			obs.Float("reduction_factor", res.ReductionFactor),
			obs.Int64("visited_bytes", res.VisitedBytes),
			obs.Float("expand_ms", msOf(expandDur)),
			obs.Float("merge_ms", msOf(mergeDur)),
			obs.Float("check_ms", msOf(checkDur)))
		span.End()
		if reg := obs.MetricsFrom(ctx); reg != nil {
			reg.Counter("mc.runs").Inc()
			// The heartbeat publishes running deltas; settle the remainder.
			if d := int64(res.States) - repStates.Swap(int64(res.States)); d > 0 {
				reg.Counter("mc.states").Add(d)
			}
			if d := int64(res.Transitions) - repTransitions.Swap(int64(res.Transitions)); d > 0 {
				reg.Counter("mc.transitions").Add(d)
			}
			if d := orbitSum - repOrbit.Swap(orbitSum); d > 0 {
				reg.Counter("mc.orbit_states").Add(d)
			}
			reg.Gauge("mc.frontier_depth").Set(int64(res.Depth))
			reg.Gauge("mc.reduction_factor_milli").Set(int64(res.ReductionFactor * 1000))
			if seen != nil {
				mn, mx := shardMinMax(seen)
				reg.Gauge("mc.shard.count").Set(int64(numShards))
				reg.Gauge("mc.shard.states_min").Set(mn)
				reg.Gauge("mc.shard.states_max").Set(mx)
				reg.Gauge("mc.visited_bytes").Set(res.VisitedBytes)
			}
			reg.Histogram("mc.check_ms").Observe(res.Elapsed)
		}
	}()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("mc: search aborted after %d states: %w", res.States, err)
	}

	// Each worker owns a scratch state that frontier vectors decode into,
	// a canonical encoder (the group behind it is shared), and an arena
	// for its candidates' keys and vectors. cur and nxt are the frontier
	// arenas of this round and the next, one per worker.
	wks := make([]*worker, workers)
	arenas := make([][]byte, workers)
	cur, nxt := make([][]byte, workers), make([][]byte, workers)
	for w := range wks {
		wks[w] = &worker{}
		if group != nil {
			wks[w].enc = group.Encoder()
		}
	}
	// canon appends the key of the state with vector vec to dst and
	// returns it with its permutation index and orbit size; rep appends
	// the representative vector.
	canon := func(wk *worker, dst, vec []byte) ([]byte, int, int) {
		if group == nil {
			return r.VectorKey(dst, vec), 0, 1
		}
		return wk.enc.Canon(dst, vec)
	}
	rep := func(wk *worker, dst, vec []byte, sigma int) []byte {
		if group == nil {
			return append(dst, vec...)
		}
		return wk.enc.AppendRep(dst, vec, sigma)
	}

	init := r.Initial()
	initVec := r.AppendVector(nil, init)
	initKey, initSigma, initOrbit := canon(wks[0], nil, initVec)
	seen = &visited{}
	initRef, _, _ := seen.insert(hashKey(initKey), initKey, edge{parent: noRef, sigma: uint16(initSigma)})
	cur[0] = rep(wks[0], cur[0], initVec, initSigma)
	frontier := []frontEnt{{ref: initRef, orbit: int32(initOrbit), vec: seg{0, uint32(len(cur[0]))}}}
	var spare []frontEnt // the previous round's frontier, reused for the next
	res.States = 1
	orbitSum = int64(initOrbit)

	// The initial state is checked in the original frame, like every
	// reported violation.
	for _, inv := range invs {
		if ok, detail := inv.Check(r, init); !ok {
			res.Violation = &Violation{Kind: InvariantViolation, Name: inv.Name, Detail: detail,
				Trace: []TraceStep{{State: r.FormatState(init)}}}
			return res, nil
		}
	}

	// Heartbeat plumbing: the round loop mirrors its counters into
	// atomics, and mc.progress marks fire whenever ProgressInterval has
	// elapsed — checked from the loop after every round (the cheap path)
	// and from a wall-clock ticker goroutine, so protocols whose
	// transition or invariant functions are slow still heartbeat on time
	// for /runs and the flight recorder. The CAS on lastBeat keeps the
	// two emitters from double-marking an interval.
	interval := opts.ProgressInterval
	if interval == 0 {
		interval = time.Second
	}
	var progStates, progTransitions, progDepth, progQueue atomic.Int64
	var progFrontier, progShardMin, progShardMax, progOrbit, progVisited atomic.Int64
	progStates.Store(1)
	progQueue.Store(1)
	progOrbit.Store(orbitSum)
	var lastBeat atomic.Int64
	lastBeat.Store(start.UnixNano())
	reg := obs.MetricsFrom(ctx)
	beat := func(now time.Time) {
		last := lastBeat.Load()
		if now.UnixNano()-last < int64(interval) || !lastBeat.CompareAndSwap(last, now.UnixNano()) {
			return
		}
		states := progStates.Load()
		transitions := progTransitions.Load()
		span.Mark("mc.progress",
			obs.Int64("states", states),
			obs.Int64("transitions", transitions),
			obs.Int64("queue", progQueue.Load()),
			obs.Int64("depth", progDepth.Load()),
			obs.Int64("frontier_depth", progFrontier.Load()),
			obs.Float("states_per_sec", float64(states)/now.Sub(start).Seconds()))
		// Mirror the running totals into the metrics registry so /metrics
		// scrapes see mc.states advance during the search, not only after.
		// Deltas guard monotonicity against a beat racing the final settle.
		if reg != nil {
			if d := states - repStates.Swap(states); d > 0 {
				reg.Counter("mc.states").Add(d)
			}
			if d := transitions - repTransitions.Swap(transitions); d > 0 {
				reg.Counter("mc.transitions").Add(d)
			}
			if d := progOrbit.Load() - repOrbit.Swap(progOrbit.Load()); d > 0 {
				reg.Counter("mc.orbit_states").Add(d)
			}
			reg.Gauge("mc.frontier_depth").Set(progFrontier.Load())
			reg.Gauge("mc.shard.count").Set(int64(numShards))
			reg.Gauge("mc.shard.states_min").Set(progShardMin.Load())
			reg.Gauge("mc.shard.states_max").Set(progShardMax.Load())
			reg.Gauge("mc.visited_bytes").Set(progVisited.Load())
			if states > 0 {
				reg.Gauge("mc.reduction_factor_milli").Set(progOrbit.Load() * 1000 / states)
			}
		}
	}
	if span != nil && interval > 0 {
		stopHB := make(chan struct{})
		defer close(stopHB)
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case now := <-t.C:
					beat(now)
				case <-stopHB:
					return
				}
			}
		}()
	}

	abort := func() (*Result, error) {
		return res, fmt.Errorf("mc: search aborted after %d states: %w", res.States, ctx.Err())
	}

	depth := 0
	for len(frontier) > 0 {
		if ctx.Err() != nil {
			return abort()
		}
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			// Depth cut: everything explored so far is violation-free, but
			// the space was not exhausted.
			res.OK = true
			return res, nil
		}

		// Phase A — expand: workers take frontier entries by stride,
		// decode each into their scratch state to enumerate its actions,
		// write every successor's vector from the entry's vector and
		// canonicalize it, reading the visited shards
		// lock-free (no one writes until the merge barrier) and bucketing
		// new candidates by shard. Frontier states with semantics problems
		// (or, when enabled, no enabled action) are not expanded; the
		// least frontier index — least canonical key — wins the round.
		phase := time.Now()
		var wg sync.WaitGroup
		for w, wk := range wks {
			wg.Add(1)
			go func(w int, wk *worker) {
				defer wg.Done()
				wk.prob, wk.full = nil, false
				wk.transitions = 0
				arena := arenas[w][:0]
				for sh := range wk.buckets {
					wk.buckets[sh] = wk.buckets[sh][:0]
				}
				for i := w; i < len(frontier); i += workers {
					if (i/workers)&255 == 255 && ctx.Err() != nil {
						break
					}
					ent := frontier[i]
					parent := ent.vec.of(cur[ent.arena])
					r.DecodeInto(&wk.st, parent)
					acts, aprobs := r.AppendActions(wk.acts[:0], &wk.st)
					wk.acts = acts
					if len(aprobs) > 0 {
						if wk.prob == nil {
							wk.prob = &problemAt{idx: i,
								name: aprobs[0].Kind.String(), detail: aprobs[0].Detail}
						}
						continue
					}
					if opts.CheckDeadlock && len(acts) == 0 {
						if wk.prob == nil {
							wk.prob = &problemAt{idx: i, deadlock: true}
						}
						continue
					}
					wk.transitions += int64(len(acts))
					for ai, a := range acts {
						wk.vec = r.AppendSuccessor(wk.vec[:0], parent, &wk.st, a)
						koff := len(arena)
						var sigma, orbit int
						arena, sigma, orbit = canon(wk, arena, wk.vec)
						key := arena[koff:]
						h := hashKey(key)
						if seen.has(h, key) {
							arena = arena[:koff]
							continue
						}
						k := seg{uint32(koff), uint32(len(key))}
						arena = rep(wk, arena, wk.vec, sigma)
						v := seg{k.off + k.n, uint32(len(arena)) - k.off - k.n}
						if bytes.Equal(v.of(arena), k.of(arena)) {
							arena, v = arena[:v.off], k
						}
						if len(arena) > math.MaxUint32 {
							wk.full = true
							break
						}
						wk.buckets[h&(numShards-1)] = append(wk.buckets[h&(numShards-1)], candidate{
							hash: h, key: k, vec: v, parent: int32(i), action: int32(ai),
							orbit: int32(orbit), sigma: uint16(sigma), w: uint16(w)})
					}
				}
				arenas[w] = arena
			}(w, wk)
		}
		wg.Wait()
		expandDur += time.Since(phase)
		for _, wk := range wks {
			res.Transitions += int(wk.transitions)
		}
		if ctx.Err() != nil {
			return abort()
		}
		if err := storageFull(wks, res.States); err != nil {
			return res, err
		}

		// Resolve problems/deadlocks: strided assignment means each
		// worker's first hit is its least index, and the global least
		// index is the least canonical key at this depth.
		var prob *problemAt
		for _, wk := range wks {
			if p := wk.prob; p != nil && (prob == nil || p.idx < prob.idx) {
				prob = p
			}
		}
		if prob != nil {
			ent := frontier[prob.idx]
			if prob.deadlock {
				steps, acts, _ := buildTrace(r, group, seen, ent.ref)
				res.Violation = &Violation{Kind: Deadlock, Name: "deadlock",
					Detail: "no enabled action", Trace: steps, actions: acts}
			} else {
				res.Violation = makeViolation(r, group, seen, ent.ref, SemanticsProblem,
					prob.name, prob.detail, nil, 0)
			}
			return res, nil
		}

		// Phase B — merge: each shard has one owner worker, which gathers
		// that shard's candidates from every expander, sorts them by
		// (key, parent, action index), admits the first edge per new key,
		// and copies the winner's vector into its own next-frontier arena.
		// Each shard's winners come out key-sorted.
		phase = time.Now()
		var wgM sync.WaitGroup
		for w, wk := range wks {
			wgM.Add(1)
			go func(w int, wk *worker) {
				defer wgM.Done()
				out := nxt[w][:0]
				defer func() { nxt[w] = out }()
				wk.won = wk.won[:0]
				for sh := w; sh < numShards; sh += workers {
					all := wk.merge[:0]
					for _, ex := range wks {
						all = append(all, ex.buckets[sh]...)
					}
					wk.merge = all
					sortCandidates(all, arenas)
					for _, c := range all {
						ref, added, ok := seen.insert(c.hash, c.key.of(arenas[c.w]), edge{
							parent: frontier[c.parent].ref, action: c.action, sigma: c.sigma})
						if !ok || len(out)+int(c.vec.n) > math.MaxUint32 {
							wk.full = true
							return
						}
						if !added {
							continue
						}
						v := seg{uint32(len(out)), c.vec.n}
						out = append(out, c.vec.of(arenas[c.w])...)
						wk.won = append(wk.won, frontEnt{ref: ref, orbit: c.orbit, arena: uint16(w), vec: v})
					}
				}
			}(w, wk)
		}
		wgM.Wait()
		if err := storageFull(wks, res.States); err != nil {
			return res, err
		}

		// The next frontier, globally key-sorted: every worker's winners
		// are key-sorted runs, so a concatenation plus one sort (cheap,
		// mostly-sorted runs) yields the canonical round order.
		next := spare[:0]
		for _, wk := range wks {
			next = append(next, wk.won...)
		}
		sortFrontier(next, seen)
		mergeDur += time.Since(phase)

		// Phase C — invariants on the accepted states, each decoded into
		// the checking worker's scratch state (representative frame;
		// invariants must be symmetric when reduction is on). The least
		// accepted index with a violation wins; per state, the least
		// invariant index.
		phase = time.Now()
		var vAt *violAt
		if len(invs) > 0 && len(next) > 0 {
			viols := make([]*violAt, workers)
			var wgI sync.WaitGroup
			for w, wk := range wks {
				wgI.Add(1)
				go func(w int, wk *worker) {
					defer wgI.Done()
					for i := w; i < len(next); i += workers {
						r.DecodeInto(&wk.st, next[i].vec.of(nxt[next[i].arena]))
						for vi, inv := range invs {
							if ok, detail := inv.Check(r, &wk.st); !ok {
								viols[w] = &violAt{idx: i, inv: vi, detail: detail}
								return
							}
						}
					}
				}(w, wk)
			}
			wgI.Wait()
			for _, v := range viols {
				if v != nil && (vAt == nil || v.idx < vAt.idx) {
					vAt = v
				}
			}
		}
		checkDur += time.Since(phase)

		// Sequential accounting in key order: exact state counting, exact
		// budget cut, and the violation-vs-budget precedence of the
		// sequential checker (a state's violation is reported before its
		// budget overflow).
		if len(next) > 0 {
			res.Depth = depth + 1
		}
		for i := range next {
			res.States++
			orbitSum += int64(next[i].orbit)
			if vAt != nil && vAt.idx == i {
				res.Violation = makeViolation(r, group, seen, next[i].ref, InvariantViolation,
					invs[vAt.inv].Name, vAt.detail, invs, vAt.inv)
				return res, nil
			}
			if res.States >= maxStates {
				return res, fmt.Errorf("mc: state budget %d exhausted (%d states)", maxStates, res.States)
			}
		}

		progStates.Store(int64(res.States))
		progTransitions.Store(int64(res.Transitions))
		progDepth.Store(int64(res.Depth))
		progQueue.Store(int64(len(next)))
		progFrontier.Store(int64(depth + 1))
		progOrbit.Store(orbitSum)
		mn, mx := shardMinMax(seen)
		progShardMin.Store(mn)
		progShardMax.Store(mx)
		progVisited.Store(seen.bytes())
		if span != nil && interval > 0 {
			beat(time.Now())
		}

		frontier, spare = next, frontier
		cur, nxt = nxt, cur
		depth++
	}
	res.OK = true
	res.Complete = true
	return res, nil
}

// worker is one frontier worker's state, kept across rounds.
type worker struct {
	// st is the scratch state frontier vectors decode into, acts its
	// actions.
	st   efsm.State
	acts []efsm.Action
	enc  *efsm.CanonEncoder
	// vec is the successor vector being canonicalized.
	vec []byte
	// buckets holds this round's candidates by shard.
	buckets     [numShards][]candidate
	transitions int64
	prob        *problemAt
	// merge gathers one shard's candidates; won collects the states the
	// worker's shards admitted this round.
	merge []candidate
	won   []frontEnt
	// full reports that a visited shard or an arena ran out of refs or
	// 32-bit offsets this round.
	full bool
}

// storageFull is the error for a round in which some worker's storage
// filled up.
func storageFull(wks []*worker, states int) error {
	for _, wk := range wks {
		if wk.full {
			return fmt.Errorf("mc: state storage full after %d states (%d states per visited shard, 4 GiB per arena)", states, maxRefs)
		}
	}
	return nil
}

// msOf converts a duration to (fractional) milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func shardMinMax(v *visited) (int64, int64) {
	mn, mx := len(v[0].edges), len(v[0].edges)
	for i := 1; i < numShards; i++ {
		if n := len(v[i].edges); n < mn {
			mn = n
		} else if n > mx {
			mx = n
		}
	}
	return int64(mn), int64(mx)
}

// makeViolation reconstructs the original-frame trace to ref and rebuilds
// the human-readable name/detail from the replayed final state, so
// counterexamples always describe the input system even when the
// violation was found on a canonical representative.
func makeViolation(r *efsm.Runtime, group *efsm.SymGroup, seen *visited, ref uint32, kind ViolationKind,
	name, detail string, invs []Invariant, invIdx int) *Violation {
	steps, acts, final := buildTrace(r, group, seen, ref)
	switch kind {
	case InvariantViolation:
		name = invs[invIdx].Name
		if ok, d := invs[invIdx].Check(r, final); !ok {
			detail = d
		}
	case SemanticsProblem:
		if _, probs := r.Actions(final); len(probs) > 0 {
			name = probs[0].Kind.String()
			detail = probs[0].Detail
		}
	}
	return &Violation{Kind: kind, Name: name, Detail: detail, Trace: steps, actions: acts}
}

// buildTrace walks the parent edges from ref back to the initial state and
// replays the path forward in the original PID frame. It keeps rho, the
// permutation taking the replayed state st to the representative the
// search expanded (Permute(st, rho)), so each edge's action is
// Actions(Permute(st, rho))[index], mapped into the original frame
// through the inverse of rho before being applied; the edge's
// canonicalizing permutation is then composed on. With symmetry reduction
// off every permutation is the identity and this is a plain replay. The
// returned state is the final (violating) state in the original frame.
func buildTrace(r *efsm.Runtime, group *efsm.SymGroup, seen *visited, ref uint32) ([]TraceStep, []efsm.Action, *efsm.State) {
	perm := func(i uint16) efsm.Perm {
		if group == nil {
			return nil
		}
		return group.Perm(int(i))
	}
	var hops []edge
	e := seen.edge(ref)
	for e.parent != noRef {
		hops = append(hops, e)
		e = seen.edge(e.parent)
	}
	rho := perm(e.sigma)
	slices.Reverse(hops)
	st := r.Initial()
	trace := []TraceStep{{State: r.FormatState(st)}}
	actions := make([]efsm.Action, 0, len(hops))
	for _, h := range hops {
		repActs, _ := r.Actions(r.Permute(st, rho))
		a := r.PermuteAction(repActs[h.action], rho.Inverse())
		st = r.Apply(st, a)
		rho = perm(h.sigma).Compose(rho)
		trace = append(trace, TraceStep{Action: r.FormatAction(a), State: r.FormatState(st)})
		actions = append(actions, a)
	}
	return trace, actions, st
}
