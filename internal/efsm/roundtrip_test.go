package efsm_test

import (
	"testing"

	"transit/internal/efsm"
)

// TestVectorRoundTripMSI decodes the vector of every reachable MSI n = 3
// state into one reused scratch state and requires the state back, the
// vector's key to be its Encode, and the same actions in the same order,
// which is what keeps action indices, and so traces, valid across a
// decode.
func TestVectorRoundTripMSI(t *testing.T) {
	r := msiRuntime(t)
	var scratch efsm.State
	var vec []byte
	seen := map[string]bool{r.Encode(r.Initial()): true}
	for queue := []*efsm.State{r.Initial()}; len(queue) > 0; queue = queue[1:] {
		st := queue[0]
		vec = r.AppendVector(vec[:0], st)
		r.DecodeInto(&scratch, vec)
		if err := efsm.SameState(&scratch, st); err != nil {
			t.Fatalf("state %d: decoded state differs: %v\n%s", len(seen), err, r.FormatState(st))
		}
		if got, want := string(r.VectorKey(nil, vec)), r.Encode(st); got != want {
			t.Fatalf("vector key %q, Encode %q", got, want)
		}
		acts, _ := r.Actions(st)
		decoded, _ := r.Actions(&scratch)
		if len(acts) != len(decoded) {
			t.Fatalf("%d actions, %d after decoding", len(acts), len(decoded))
		}
		for i, a := range acts {
			if got, want := r.FormatAction(decoded[i]), r.FormatAction(a); got != want {
				t.Fatalf("action %d after decoding is %s, want %s", i, got, want)
			}
			next := r.Apply(st, a)
			if k := r.Encode(next); !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	if len(seen) != 36198 {
		t.Errorf("%d reachable states, want 36198", len(seen))
	}
}
