package efsm

import (
	"fmt"
	"math/rand"
	"testing"

	"transit/internal/expr"
)

// sameState reports how two states differ, or nil when they are equal:
// the same control ordinals, the same values (types included) and, per
// network slot, the same messages in the same order. A nil and an empty
// slice are alike.
func sameState(a, b *State) error {
	if len(a.Procs) != len(b.Procs) || len(a.Nets) != len(b.Nets) {
		return fmt.Errorf("shape: %d/%d instances, %d/%d networks",
			len(a.Procs), len(b.Procs), len(a.Nets), len(b.Nets))
	}
	for i, p := range a.Procs {
		q := b.Procs[i]
		if p.Ctl != q.Ctl || len(p.Vars) != len(q.Vars) {
			return fmt.Errorf("instance %d: control %d/%d, %d/%d variables", i, p.Ctl, q.Ctl, len(p.Vars), len(q.Vars))
		}
		for j, v := range p.Vars {
			if v != q.Vars[j] {
				return fmt.Errorf("instance %d variable %d: %v (%v) vs %v (%v)", i, j, v, v.Type(), q.Vars[j], q.Vars[j].Type())
			}
		}
	}
	for n, slots := range a.Nets {
		if len(slots) != len(b.Nets[n]) {
			return fmt.Errorf("network %d: %d/%d slots", n, len(slots), len(b.Nets[n]))
		}
		for s, msgs := range slots {
			other := b.Nets[n][s]
			if len(msgs) != len(other) {
				return fmt.Errorf("network %d slot %d: %d/%d messages", n, s, len(msgs), len(other))
			}
			for m, msg := range msgs {
				if len(msg) != len(other[m]) {
					return fmt.Errorf("network %d slot %d message %d: %d/%d fields", n, s, m, len(msg), len(other[m]))
				}
				for f, v := range msg {
					if v != other[m][f] {
						return fmt.Errorf("network %d slot %d message %d field %d: %v vs %v", n, s, m, f, v, other[m][f])
					}
				}
			}
		}
	}
	return nil
}

// SameState exports sameState to the external test package.
var SameState = sameState

// wideEnumSystem is allTypesSystem with an Enum of 300 values, whose
// fields take two bytes, in place of the 3-value one.
func wideEnumSystem(t *testing.T, u *expr.Universe) *Runtime {
	t.Helper()
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("W%d", i)
	}
	e := u.MustDeclareEnum("WideE", names...)
	vars := []*expr.Var{
		expr.V("B", expr.BoolType), expr.V("I", expr.IntType), expr.V("P", expr.PIDType),
		expr.V("S", expr.SetType), expr.V("E", expr.EnumOf(e)),
	}
	fields := []Field{
		{Name: "B", T: expr.BoolType}, {Name: "I", T: expr.IntType}, {Name: "Dest", T: expr.PIDType},
		{Name: "S", T: expr.SetType}, {Name: "E", T: expr.EnumOf(e)},
	}
	hub := &ProcDef{Name: "Hub", States: u.MustDeclareEnum("WideHubSt", "H0", "H1"), Init: "H0", Vars: vars}
	node := &ProcDef{Name: "Node", States: u.MustDeclareEnum("WideNodeSt", "N0", "N1", "N2"), Init: "N0",
		Vars: vars, Replicated: true}
	up := &Network{Name: "Up", Kind: Ordered, Receiver: hub, Route: RouteStatic,
		Msg: &MessageType{Name: "WideUpM", Fields: fields}}
	down := &Network{Name: "Down", Kind: Unordered, Receiver: node, Route: RouteByField, DestField: "Dest",
		Msg: &MessageType{Name: "WideDownM", Fields: fields}}
	r, err := NewRuntime(&System{Name: "wide", U: u, Networks: []*Network{up, down}, Defs: []*ProcDef{hub, node}})
	if err != nil {
		t.Fatal(err)
	}
	if w := r.procs[0].varW[4]; w != 2 {
		t.Fatalf("a 300-value Enum takes %d key bytes, want 2", w)
	}
	return r
}

// randomMsgs returns k random messages of network n.
func randomMsgs(rng *rand.Rand, r *Runtime, n, k int) []Msg {
	msgs := make([]Msg, k)
	for i := range msgs {
		for _, f := range r.Sys.Networks[n].Msg.Fields {
			msgs[i] = append(msgs[i], randomValue(rng, r.Sys.U, f.T))
		}
	}
	return msgs
}

// TestVectorRoundTripRandom decodes the vectors of random states of every
// value type — negative Ints, an Enum whose fields take two bytes, Sets
// of one and two bytes, slots of 256 and more messages — and requires
// the state back, and the vector's key (VectorKey) to be the state's
// Encode. One scratch state takes every decode, so a decode after a
// larger state must leave nothing of it behind.
func TestVectorRoundTripRandom(t *testing.T) {
	for _, c := range []struct {
		caches int
		width  uint
	}{{3, 5}, {10, 12}} {
		u, err := expr.NewUniverseWidth(c.caches, c.width)
		if err != nil {
			t.Fatal(err)
		}
		r := wideEnumSystem(t, u)
		rng := rand.New(rand.NewSource(int64(c.caches)))
		var scratch State
		negative := 0
		for i := 0; i < 300; i++ {
			st := randomState(rng, r)
			switch i % 10 {
			case 3: // a long ordered slot
				st.Nets[0][0] = randomMsgs(rng, r, 0, 256+rng.Intn(50))
			case 7: // a long unordered slot
				q := rng.Intn(c.caches)
				st.Nets[1][q] = randomMsgs(rng, r, 1, 256+rng.Intn(50))
			}
			for _, p := range st.Procs {
				if p.Vars[1].Int() < 0 {
					negative++
				}
			}
			vec := r.AppendVector(nil, st)
			r.DecodeInto(&scratch, vec)
			if err := sameState(&scratch, st); err != nil {
				t.Fatalf("caches %d, state %d: decoded state differs: %v", c.caches, i, err)
			}
			var fresh State
			r.DecodeInto(&fresh, vec)
			if err := sameState(&fresh, st); err != nil {
				t.Fatalf("caches %d, state %d: decoded into a new state: %v", c.caches, i, err)
			}
			if got, want := string(r.VectorKey(nil, vec)), r.Encode(st); got != want {
				t.Fatalf("caches %d, state %d: vector key %q, Encode %q", c.caches, i, got, want)
			}
		}
		if negative == 0 {
			t.Errorf("caches %d: no negative Int was drawn", c.caches)
		}
	}
}
