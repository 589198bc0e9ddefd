package efsm_test

import (
	"sync"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// msiRuntime completes MSI at n = 3 and returns its runtime.
func msiRuntime(t *testing.T) *efsm.Runtime {
	t.Helper()
	spec := protocols.MSI(3)
	if _, err := core.Complete(spec.Sys, spec.Vocab, spec.Snippets,
		core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
		t.Fatal(err)
	}
	r, err := efsm.NewRuntime(spec.Sys)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestApplyLeavesStatesIntact explores every reachable MSI n = 3 state.
// Apply shares the unchanged parts of its input with the successor, so
// it must never write into them: each state's key is recorded when the
// state is built and must be unchanged after the whole exploration, and
// successors that append to the same network slot must not see each
// other's messages.
func TestApplyLeavesStatesIntact(t *testing.T) {
	r := msiRuntime(t)
	init := r.Initial()
	keys := map[string]bool{r.Encode(init): true}
	built := []*efsm.State{init}
	builtKeys := []string{r.Encode(init)}
	sameSlot := 0
	for i := 0; i < len(built); i++ {
		st := built[i]
		acts, probs := r.Actions(st)
		if len(probs) > 0 {
			t.Fatalf("semantics problem: %s", probs[0].Detail)
		}
		// appended[net, slot] counts this state's successors that grew
		// that slot.
		appended := map[[2]int]int{}
		succ := make([]*efsm.State, len(acts))
		succKeys := make([]string, len(acts))
		for ai, a := range acts {
			next := r.Apply(st, a)
			k := r.Encode(next)
			succ[ai], succKeys[ai] = next, k
			for n, slots := range next.Nets {
				for q, msgs := range slots {
					if len(msgs) > len(st.Nets[n][q]) {
						appended[[2]int{n, q}]++
					}
				}
			}
			if !keys[k] {
				keys[k] = true
				built = append(built, next)
				builtKeys = append(builtKeys, k)
			}
		}
		for _, c := range appended {
			if c > 1 {
				sameSlot++
			}
		}
		for ai, next := range succ {
			if got := r.Encode(next); got != succKeys[ai] {
				t.Fatalf("state %d: successor %d changed while its siblings were built", i, ai)
			}
		}
	}
	if len(built) != 36198 {
		t.Fatalf("explored %d states, want MSI n=3's 36198", len(built))
	}
	if sameSlot == 0 {
		t.Fatal("no state had two successors appending to one slot")
	}
	for i, st := range built {
		if got := r.Encode(st); got != builtKeys[i] {
			t.Fatalf("state %d changed after it was built:\n got %q\nwant %q", i, got, builtKeys[i])
		}
	}
}

// TestRuntimeConcurrentUse runs Actions, Apply and Encode on one Runtime
// from several goroutines at once (as the model checker's workers do)
// and requires every goroutine to compute the sequential answers.
func TestRuntimeConcurrentUse(t *testing.T) {
	r := msiRuntime(t)
	var states []*efsm.State
	seen := map[string]bool{}
	for queue := []*efsm.State{r.Initial()}; len(queue) > 0 && len(states) < 400; queue = queue[1:] {
		st := queue[0]
		states = append(states, st)
		acts, _ := r.Actions(st)
		for _, a := range acts {
			next := r.Apply(st, a)
			if k := r.Encode(next); !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	succKeys := func(st *efsm.State) []string {
		acts, _ := r.Actions(st)
		var out []string
		for _, a := range acts {
			out = append(out, r.Encode(r.Apply(st, a)))
		}
		return out
	}
	want := make([][]string, len(states))
	for i, st := range states {
		want[i] = succKeys(st)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(states)+w; i++ {
				j := i % len(states)
				got := succKeys(states[j])
				if len(got) != len(want[j]) {
					t.Errorf("worker %d, state %d: %d successors, want %d", w, j, len(got), len(want[j]))
					return
				}
				for k := range got {
					if got[k] != want[j][k] {
						t.Errorf("worker %d, state %d: successor %d differs", w, j, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
