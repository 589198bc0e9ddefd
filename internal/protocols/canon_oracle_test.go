package protocols

import (
	"bytes"
	"slices"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/synth"
)

// lexPerms lists the permutations of 0..n-1 in lexicographic order.
func lexPerms(n int) []efsm.Perm {
	var out []efsm.Perm
	var gen func(prefix efsm.Perm, used []bool)
	gen = func(prefix efsm.Perm, used []bool) {
		if len(prefix) == n {
			out = append(out, slices.Clone(prefix))
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				gen(append(prefix, v), used)
				used[v] = false
			}
		}
	}
	gen(nil, make([]bool, n))
	return out
}

// referenceCanon is the canonical form by definition: the least Encode
// of Permute(st, π) over all permutations, the first π in lexicographic
// order reaching it, and the orbit size n!/#minima.
func referenceCanon(r *efsm.Runtime, perms []efsm.Perm, st *efsm.State) (string, efsm.Perm, int) {
	var best string
	var sigma efsm.Perm
	minima := 0
	for _, pi := range perms {
		k := r.Encode(r.Permute(st, pi))
		switch {
		case sigma == nil || k < best:
			best, sigma, minima = k, pi, 1
		case k == best:
			minima++
		}
	}
	return best, sigma, len(perms) / minima
}

// TestCanonOracleBuiltins checks the table-driven canonicalizer against
// referenceCanon on every reachable state of the five builtins at n = 3
// and on the first 20,000 breadth-first states of MSI and Origin at
// n = 4: the same key, the same permutation and orbit size, and a
// representative vector equal to the vector of Permute(st, σ).
func TestCanonOracleBuiltins(t *testing.T) {
	cases := []struct {
		spec  *Spec
		limit int
	}{
		{VI(3), 0}, {MSI(3), 0}, {MESI(3), 0}, {Origin(3, true), 0}, {Origin(3, false), 0},
		{MSI(4), 20000}, {Origin(4, true), 20000},
	}
	for _, c := range cases {
		spec := c.spec
		if _, err := core.Complete(spec.Sys, spec.Vocab, spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
			t.Fatalf("%s: synthesis: %v", spec.Name, err)
		}
		r, err := efsm.NewRuntime(spec.Sys)
		if err != nil {
			t.Fatal(err)
		}
		g, err := efsm.NewSymGroup(r)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		enc := g.Encoder()
		perms := lexPerms(spec.Sys.U.NumCaches())
		seen := map[string]bool{r.Encode(r.Initial()): true}
		checked := 0
		for queue := []*efsm.State{r.Initial()}; len(queue) > 0 && (c.limit == 0 || checked < c.limit); queue = queue[1:] {
			st := queue[0]
			checked++
			wantKey, wantSigma, wantOrbit := referenceCanon(r, perms, st)
			vec := r.AppendVector(nil, st)
			key, sigma, orbit := enc.Canon(nil, vec)
			if string(key) != wantKey || !slices.Equal(g.Perm(sigma), wantSigma) || orbit != wantOrbit {
				t.Fatalf("%s n=%d: state %s\ncanonicalizes to (%q, %v, %d), reference (%q, %v, %d)",
					spec.Name, spec.Sys.U.NumCaches(), r.FormatState(st), key, g.Perm(sigma), orbit,
					wantKey, wantSigma, wantOrbit)
			}
			if rep, want := enc.AppendRep(nil, vec, sigma), r.AppendVector(nil, r.Permute(st, wantSigma)); !bytes.Equal(rep, want) {
				t.Fatalf("%s n=%d: state %s\nrepresentative vector %q, want %q",
					spec.Name, spec.Sys.U.NumCaches(), r.FormatState(st), rep, want)
			}
			acts, probs := r.Actions(st)
			if len(probs) > 0 {
				continue
			}
			for _, a := range acts {
				next := r.Apply(st, a)
				if k := r.Encode(next); !seen[k] {
					seen[k] = true
					queue = append(queue, next)
				}
			}
		}
		t.Logf("%s n=%d: %d states", spec.Name, spec.Sys.U.NumCaches(), checked)
	}
}
