package efsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"transit/internal/expr"
)

// refApply is the reference successor semantics: a deep copy of st with
// every guard-free piece of the transition evaluated by the tree
// evaluator over an Env map — updates and send fields in the pre-state
// scope (variables, Self, the received message's fields), the consumed
// message removed from its slot, then the sends appended in order, a
// multicast as one copy per member in ascending PID order.
func refApply(r *Runtime, st *State, a Action) *State {
	u := r.Sys.U
	inst := r.Insts[a.Inst]
	d, t := inst.Def, a.Trans
	env := expr.Env{}
	for j, v := range d.Vars {
		env[v.Name] = st.Procs[a.Inst].Vars[j]
	}
	env[SelfVar] = expr.PIDVal(inst.PID)
	if a.Net >= 0 {
		for j, f := range r.Sys.Networks[a.Net].Msg.Fields {
			env[t.Event.MsgVar+"."+f.Name] = a.Msg[j]
		}
	}
	next := st.Clone()
	vals := make([]expr.Value, len(t.Updates))
	for i, up := range t.Updates {
		vals[i] = up.Rhs.Eval(u, env)
	}
	for i, up := range t.Updates {
		next.Procs[a.Inst].Vars[d.VarIndex(up.Var)] = vals[i]
	}
	next.Procs[a.Inst].Ctl = d.States.Ord(t.To)
	if a.Net >= 0 {
		old := next.Nets[a.Net][a.Slot]
		next.Nets[a.Net][a.Slot] = append(old[:a.Pos:a.Pos], old[a.Pos+1:]...)
	}
	for _, snd := range t.Sends {
		n := r.netIdx[snd.Net]
		msg := make(Msg, len(snd.Net.Msg.Fields))
		for j, f := range snd.Net.Msg.Fields {
			msg[j] = expr.ZeroOf(f.T)
		}
		for _, fa := range snd.Fields {
			msg[snd.Net.Msg.FieldIndex(fa.Field)] = fa.Rhs.Eval(u, env)
		}
		dest := snd.Net.Msg.FieldIndex(snd.Net.DestField)
		if snd.TargetSet != nil {
			mask := snd.TargetSet.Eval(u, env).Set()
			for pid := 0; pid < u.NumCaches(); pid++ {
				if mask&(1<<uint(pid)) != 0 {
					c := append(Msg(nil), msg...)
					c[dest] = expr.PIDVal(pid)
					next.Nets[n][pid] = append(next.Nets[n][pid], c)
				}
			}
			continue
		}
		slot := 0
		if snd.Net.Route == RouteByField {
			slot = msg[dest].PID()
		}
		next.Nets[n][slot] = append(next.Nets[n][slot], msg)
	}
	return next
}

// checkSuccessors decodes st's vector into scratch and checks every
// action of the decoded state: AppendSuccessor, after an arbitrary prefix
// and from the parent's vector, must append exactly the vector of
// refApply's successor, and Apply must return refApply's successor in a
// state of its own, leaving its input intact. It returns the actions and
// the reference successors.
func checkSuccessors(r *Runtime, st, scratch *State) ([]Action, []*State, error) {
	vec := r.AppendVector(nil, st)
	r.DecodeInto(scratch, vec)
	acts, _ := r.Actions(scratch)
	succ := make([]*State, len(acts))
	prefix := []byte("prefix|")
	var got []byte
	for i, a := range acts {
		want := refApply(r, scratch, a)
		wantVec := r.AppendVector(nil, want)
		got = r.AppendSuccessor(append(got[:0], prefix...), vec, scratch, a)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], wantVec) {
			return nil, nil, fmt.Errorf("action %d (%s): AppendSuccessor\n got %x\nwant %x",
				i, r.FormatAction(a), got[len(prefix):], wantVec)
		}
		applied := r.Apply(scratch, a)
		if err := sameState(applied, want); err != nil {
			return nil, nil, fmt.Errorf("action %d (%s): Apply: %v", i, r.FormatAction(a), err)
		}
		// Overwrite Apply's result: its input must not change.
		for p := range applied.Procs {
			clear(applied.Procs[p].Vars)
		}
		for _, slots := range applied.Nets {
			for _, msgs := range slots {
				for _, m := range msgs {
					clear(m)
				}
			}
		}
		succ[i] = want
	}
	if !bytes.Equal(r.AppendVector(nil, scratch), vec) {
		return nil, nil, fmt.Errorf("the state changed while its successors were built")
	}
	return acts, succ, nil
}

// CheckSuccessors exports checkSuccessors to the external test package.
var CheckSuccessors = checkSuccessors

// successorSystem is a hub and its replicated nodes exchanging messages
// with a field of every type, the Enum of 300 values (two key bytes), on
// an ordered static network Up and an unordered by-field network Down.
// Its transitions consume and send on the same slot, multicast to every
// PID, and make Int updates that go negative.
func successorSystem(t *testing.T, u *expr.Universe) *Runtime {
	t.Helper()
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("W%d", i)
	}
	e := u.MustDeclareEnum("SuccE", names...)
	et := expr.EnumOf(e)
	v := func(name string, ty expr.Type) *expr.Var { return expr.V(name, ty) }
	vars := []*expr.Var{v("B", expr.BoolType), v("I", expr.IntType), v("P", expr.PIDType),
		v("S", expr.SetType), v("E", et)}
	fields := []Field{{Name: "B", T: expr.BoolType}, {Name: "I", T: expr.IntType},
		{Name: "Dest", T: expr.PIDType}, {Name: "S", T: expr.SetType}, {Name: "E", T: et}}
	hub := &ProcDef{Name: "Hub", States: u.MustDeclareEnum("SuccHubSt", "H0", "H1"), Init: "H0",
		Vars: vars, Triggers: []string{"Tick"}}
	node := &ProcDef{Name: "Node", States: u.MustDeclareEnum("SuccNodeSt", "N0", "N1", "N2"), Init: "N0",
		Vars: vars, Replicated: true, Triggers: []string{"Go"}}
	up := &Network{Name: "Up", Kind: Ordered, Receiver: hub, Route: RouteStatic,
		Msg: &MessageType{Name: "SuccUpM", Fields: fields}}
	down := &Network{Name: "Down", Kind: Unordered, Receiver: node, Route: RouteByField, DestField: "Dest",
		Msg: &MessageType{Name: "SuccDownM", Fields: fields}}
	all := make([]int, u.NumCaches())
	for i := range all {
		all[i] = i
	}
	in := func(f string, ty expr.Type) expr.Expr { return v("In."+f, ty) }
	m := func(f string, ty expr.Type) expr.Expr { return v("M."+f, ty) }
	I, S, E := v("I", expr.IntType), v("S", expr.SetType), v("E", et)
	onUp := Event{Net: up, MsgVar: "In"}
	onDown := Event{Net: down, MsgVar: "M"}
	hub.Transitions = []*Transition{
		// Consume from Up and send on Up: the same slot both ways.
		{From: "H0", Event: onUp, Guard: in("B", expr.BoolType), To: "H1",
			Updates: []Update{{Var: "I", Rhs: expr.Sub(I, in("I", expr.IntType))}, {Var: "E", Rhs: in("E", et)},
				{Var: "S", Rhs: expr.SetAdd(S, in("Dest", expr.PIDType))}},
			Sends: []Send{
				{Net: up, MsgVar: "Out", Fields: []SendField{{Field: "I", Rhs: expr.Dec(in("I", expr.IntType))},
					{Field: "E", Rhs: in("E", et)}, {Field: "Dest", Rhs: v("P", expr.PIDType)}}},
				{Net: down, MsgVar: "Out", TargetSet: expr.SetUnion(S, in("S", expr.SetType)),
					Fields: []SendField{{Field: "B", Rhs: expr.True()}, {Field: "I", Rhs: I}}},
			}},
		// A multicast to every PID, then a unicast that may share a slot
		// with one of its copies.
		{From: "H0", Event: onUp, Guard: expr.Not(in("B", expr.BoolType)), To: "H0",
			Updates: []Update{{Var: "I", Rhs: expr.Dec(I)}},
			Sends: []Send{
				{Net: down, MsgVar: "Out", TargetSet: expr.SetC(all...),
					Fields: []SendField{{Field: "E", Rhs: in("E", et)}, {Field: "I", Rhs: in("I", expr.IntType)},
						{Field: "B", Rhs: in("B", expr.BoolType)}, {Field: "S", Rhs: in("S", expr.SetType)}}},
				{Net: down, MsgVar: "Out", Fields: []SendField{{Field: "Dest", Rhs: in("Dest", expr.PIDType)},
					{Field: "E", Rhs: expr.EnumC(e, "W299")}}},
			}},
		{From: "H1", Event: onUp, To: "H0",
			Updates: []Update{{Var: "B", Rhs: expr.Not(v("B", expr.BoolType))}},
			Sends:   []Send{{Net: up, MsgVar: "Out", Fields: []SendField{{Field: "I", Rhs: I}}}}},
		{From: "H1", Event: Event{Trigger: "Tick"}, To: "H0",
			Updates: []Update{{Var: "I", Rhs: expr.Sub(expr.IntC(u, 0), expr.IntC(u, 3))}},
			Sends: []Send{{Net: up, MsgVar: "Out", Fields: []SendField{{Field: "E", Rhs: expr.EnumC(e, "W257")},
				{Field: "I", Rhs: expr.Dec(I)}}}}},
	}
	for _, from := range []string{"N0", "N1", "N2"} {
		node.Transitions = append(node.Transitions,
			&Transition{From: from, Event: onDown, Guard: m("B", expr.BoolType), To: "N1",
				Updates: []Update{{Var: "I", Rhs: expr.Add(I, m("I", expr.IntType))}, {Var: "S", Rhs: m("S", expr.SetType)}}},
			&Transition{From: from, Event: onDown, Guard: expr.Not(m("B", expr.BoolType)), To: "N2",
				Updates: []Update{{Var: "E", Rhs: m("E", et)}},
				Sends: []Send{{Net: up, MsgVar: "Out", Fields: []SendField{{Field: "B", Rhs: expr.True()},
					{Field: "I", Rhs: I}, {Field: "Dest", Rhs: v(SelfVar, expr.PIDType)},
					{Field: "E", Rhs: m("E", et)}, {Field: "S", Rhs: expr.Singleton(v(SelfVar, expr.PIDType))}}}}},
			&Transition{From: from, Event: Event{Trigger: "Go"}, To: "N0",
				Updates: []Update{{Var: "I", Rhs: expr.Dec(I)}, {Var: "E", Rhs: expr.EnumC(e, "W298")}},
				Sends: []Send{{Net: up, MsgVar: "Out", Fields: []SendField{{Field: "B", Rhs: v("B", expr.BoolType)},
					{Field: "I", Rhs: expr.Sub(I, expr.IntC(u, 3))}, {Field: "E", Rhs: E},
					{Field: "Dest", Rhs: v(SelfVar, expr.PIDType)}}}}})
	}
	r, err := NewRuntime(&System{Name: "succ", U: u, Networks: []*Network{up, down}, Defs: []*ProcDef{hub, node}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSuccessorOracleRandom checks AppendSuccessor and Apply against
// refApply on random states of successorSystem, at 1-byte and 2-byte Int
// and Set widths. The states put 127 or 128 messages on slots, so the
// test requires these cases to have occurred: a slot of 127 that receives
// a send (its count's uvarint grows to two bytes), a slot of 128 consumed
// from (it shrinks to one), a multicast to every PID, a consume and a
// send on the same slot, a negative Int update and a sent Enum ordinal
// past 255.
func TestSuccessorOracleRandom(t *testing.T) {
	for _, c := range []struct {
		caches int
		width  uint
	}{{3, 5}, {10, 12}} {
		u, err := expr.NewUniverseWidth(c.caches, c.width)
		if err != nil {
			t.Fatal(err)
		}
		r := successorSystem(t, u)
		rng := rand.New(rand.NewSource(int64(c.caches)))
		var scratch State
		seen := map[string]int{}
		for i := 0; i < 60; i++ {
			st := randomState(rng, r)
			long := []int{127, 128}[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				st.Nets[0][0] = randomMsgs(rng, r, 0, long)
			} else {
				st.Nets[1][rng.Intn(c.caches)] = randomMsgs(rng, r, 1, long)
			}
			acts, succ, err := checkSuccessors(r, st, &scratch)
			if err != nil {
				t.Fatalf("caches %d, state %d: %v", c.caches, i, err)
			}
			for k, a := range acts {
				successorCases(r, &scratch, a, succ[k], seen)
			}
		}
		for _, what := range []string{"grow 127", "shrink 128", "multicast to all", "consume and send on one slot",
			"negative update", "two-byte enum sent"} {
			if seen[what] == 0 {
				t.Errorf("caches %d: no action covered %q (%v)", c.caches, what, seen)
			}
		}
	}
}

// successorCases counts the cases TestSuccessorOracleRandom requires.
func successorCases(r *Runtime, st *State, a Action, next *State, seen map[string]int) {
	multicast, sendsOnConsumed := false, false
	for _, snd := range a.Trans.Sends {
		multicast = multicast || snd.TargetSet != nil
		sendsOnConsumed = sendsOnConsumed || (a.Net >= 0 && r.netIdx[snd.Net] == a.Net)
	}
	if sendsOnConsumed {
		seen["consume and send on one slot"]++
	}
	grewAll := true
	for n, slots := range next.Nets {
		for q, msgs := range slots {
			before := len(st.Nets[n][q])
			if before == 127 && len(msgs) == 128 {
				seen["grow 127"]++
			}
			if before == 128 && len(msgs) == 127 && a.Net == n && a.Slot == q {
				seen["shrink 128"]++
			}
			if len(msgs) > before {
				if msgs[len(msgs)-1][4].EnumOrd() > 255 {
					seen["two-byte enum sent"]++
				}
			} else if n == 1 {
				grewAll = false
			}
		}
	}
	if multicast && grewAll {
		seen["multicast to all"]++
	}
	for _, up := range a.Trans.Updates {
		if up.Var == "I" && next.Procs[a.Inst].Vars[1].Int() < 0 {
			seen["negative update"]++
		}
	}
}

// TestApplyUnindexedTransitionPanics: an action whose transition the
// runtime never indexed panics, naming the instance and the transition.
func TestApplyUnindexedTransitionPanics(t *testing.T) {
	r := successorSystem(t, expr.NewUniverse(3))
	stray := &Transition{From: "N1", Event: Event{Trigger: "Halt"}, To: "N2"}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"Node2", "N1", "Halt", "N2", "not indexed"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %q", msg, want)
			}
		}
	}()
	r.Apply(r.Initial(), Action{Inst: 3, Trans: stray, Net: -1})
}
