package efsm

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"transit/internal/expr"
)

// wideEncode is the state key before keys were compacted: every value as
// a 10-byte record (expr.Value.AppendEncoding) and each slot's count as
// one byte. The compact key must order states exactly as this one does,
// so that frontier order, merge winners and traces stay as they were.
func wideEncode(r *Runtime, st *State) string {
	var b []byte
	for _, p := range st.Procs {
		b = append(b, byte(p.Ctl))
		for _, v := range p.Vars {
			b = v.AppendEncoding(b)
		}
	}
	for n, slots := range st.Nets {
		for _, msgs := range slots {
			b = append(b, byte(len(msgs)), '|')
			keys := make([]string, len(msgs))
			for i, m := range msgs {
				var k []byte
				for _, v := range m {
					k = v.AppendEncoding(k)
				}
				keys[i] = string(k)
			}
			if r.Sys.Networks[n].Kind == Unordered {
				sort.Strings(keys)
			}
			b = append(b, strings.Join(keys, "")...)
		}
	}
	return string(b)
}

// allTypesSystem has a singleton and a replicated definition, each with
// one variable of every type, and two networks, one ordered and one
// unordered by-field, whose messages carry every type too.
func allTypesSystem(t *testing.T, u *expr.Universe) *Runtime {
	t.Helper()
	e := u.MustDeclareEnum("AllE", "P", "Q", "R")
	vars := []*expr.Var{
		expr.V("B", expr.BoolType), expr.V("I", expr.IntType), expr.V("P", expr.PIDType),
		expr.V("S", expr.SetType), expr.V("E", expr.EnumOf(e)),
	}
	fields := []Field{
		{Name: "B", T: expr.BoolType}, {Name: "I", T: expr.IntType}, {Name: "Dest", T: expr.PIDType},
		{Name: "S", T: expr.SetType}, {Name: "E", T: expr.EnumOf(e)},
	}
	hub := &ProcDef{Name: "Hub", States: u.MustDeclareEnum("HubSt", "H0", "H1"), Init: "H0", Vars: vars}
	node := &ProcDef{Name: "Node", States: u.MustDeclareEnum("NodeSt", "N0", "N1", "N2"), Init: "N0",
		Vars: vars, Replicated: true}
	up := &Network{Name: "Up", Kind: Ordered, Receiver: hub, Route: RouteStatic,
		Msg: &MessageType{Name: "UpM", Fields: fields}}
	down := &Network{Name: "Down", Kind: Unordered, Receiver: node, Route: RouteByField, DestField: "Dest",
		Msg: &MessageType{Name: "DownM", Fields: fields}}
	r, err := NewRuntime(&System{Name: "all", U: u, Networks: []*Network{up, down}, Defs: []*ProcDef{hub, node}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randomValue(rng *rand.Rand, u *expr.Universe, ty expr.Type) expr.Value {
	switch ty.Kind {
	case expr.KindBool:
		return expr.BoolVal(rng.Intn(2) == 1)
	case expr.KindInt:
		return expr.IntVal(u, u.MinInt()+rng.Int63n(u.MaxInt()-u.MinInt()+1))
	case expr.KindPID:
		return expr.PIDVal(rng.Intn(u.NumCaches()))
	case expr.KindSet:
		return expr.SetVal(rng.Uint64() & u.SetMask())
	}
	return expr.EnumVal(ty.Enum, rng.Intn(len(ty.Enum.Values)))
}

// randomState fills every variable and up to three messages per slot
// with random values of their types.
func randomState(rng *rand.Rand, r *Runtime) *State {
	u := r.Sys.U
	st := r.Initial()
	for i, inst := range r.Insts {
		st.Procs[i].Ctl = rng.Intn(len(inst.Def.States.Values))
		for j, v := range inst.Def.Vars {
			st.Procs[i].Vars[j] = randomValue(rng, u, v.VT)
		}
	}
	for n, net := range r.Sys.Networks {
		for q := range st.Nets[n] {
			for k := rng.Intn(4); k > 0; k-- {
				m := make(Msg, len(net.Msg.Fields))
				for j, f := range net.Msg.Fields {
					m[j] = randomValue(rng, u, f.T)
				}
				st.Nets[n][q] = append(st.Nets[n][q], m)
			}
		}
	}
	return st
}

// TestKeyOrderMatchesWideEncoding checks, on random states of every value
// type, that the compact key orders any two states as the wide reference
// encoding does (equal keys included), for 1-byte and multi-byte Int and
// Set widths.
func TestKeyOrderMatchesWideEncoding(t *testing.T) {
	for _, c := range []struct {
		caches int
		width  uint
	}{{3, 5}, {10, 12}} {
		u, err := expr.NewUniverseWidth(c.caches, c.width)
		if err != nil {
			t.Fatal(err)
		}
		r := allTypesSystem(t, u)
		rng := rand.New(rand.NewSource(int64(c.caches)))
		var keys, wide []string
		for i := 0; i < 150; i++ {
			st := randomState(rng, r)
			keys = append(keys, r.Encode(st))
			wide = append(wide, wideEncode(r, st))
			// Near-duplicates: one field changed, so most pairs share long
			// prefixes and the comparison reaches deep into the key.
			cl := st.Clone()
			cl.Procs[len(cl.Procs)-1].Vars[1] = randomValue(rng, u, expr.IntType)
			keys = append(keys, r.Encode(cl))
			wide = append(wide, wideEncode(r, cl))
		}
		for i := range keys {
			for j := range keys {
				if got, want := strings.Compare(keys[i], keys[j]), strings.Compare(wide[i], wide[j]); got != want {
					t.Fatalf("caches %d, width %d: states %d and %d compare %d, wide encoding %d",
						c.caches, c.width, i, j, got, want)
				}
			}
		}
	}
}

// TestEncodeCountsPastByteRange: a slot's message count is a uvarint, so
// counts of 256 and more do not wrap. With 1-byte fields the message
// {false, 124} encodes to "\x00|", the bytes an empty slot's count and
// separator take, so a one-byte count would make 256 such messages in
// the first slot and none in the second collide with the reverse.
func TestEncodeCountsPastByteRange(t *testing.T) {
	u, err := expr.NewUniverseWidth(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	fields := []Field{{Name: "F", T: expr.BoolType}, {Name: "V", T: expr.IntType}}
	dir := &ProcDef{Name: "Dir", States: u.MustDeclareEnum("CountDirSt", "D"), Init: "D"}
	net := func(name string) *Network {
		return &Network{Name: name, Kind: Ordered, Receiver: dir, Route: RouteStatic,
			Msg: &MessageType{Name: name + "M", Fields: fields}}
	}
	r, err := NewRuntime(&System{Name: "count", U: u, Networks: []*Network{net("N1"), net("N2")}, Defs: []*ProcDef{dir}})
	if err != nil {
		t.Fatal(err)
	}
	msg := Msg{expr.BoolVal(false), expr.IntVal(u, 124)}
	if got := string(appendMsg(nil, msg, r.nets[0].fieldW, nil)); got != "\x00|" {
		t.Fatalf("message encodes to %q, want %q", got, "\x00|")
	}
	many := make([]Msg, 256)
	for i := range many {
		many[i] = msg
	}
	a, b := r.Initial(), r.Initial()
	a.Nets[0][0] = many
	b.Nets[1][0] = many
	if r.Encode(a) == r.Encode(b) {
		t.Fatal("256 messages in the first slot and none in the second encode like the reverse")
	}
}
