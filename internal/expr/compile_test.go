package expr

import (
	"fmt"
	"math/rand"
	"testing"
)

// diffVars is the differential tests' scope: two variables of every type.
func diffVars(e *EnumType) []*Var {
	return []*Var{
		V("a", IntType), V("b", IntType),
		V("x", BoolType), V("y", BoolType),
		V("p", PIDType), V("q", PIDType),
		V("s", SetType), V("t", SetType),
		V("m", EnumOf(e)), V("n", EnumOf(e)),
	}
}

// regSlots places vars in registers in a random order, leaving register 0
// unused, and returns the register file for env with the slot function
// that reads it.
func regSlots(rng *rand.Rand, vars []*Var, env Env) ([]Value, func(string) (int, Type, bool)) {
	regOf := map[string]int{}
	regs := make([]Value, len(vars)+1)
	for i, j := range rng.Perm(len(vars)) {
		v := vars[j]
		regOf[v.Name] = i + 1
		regs[i+1] = env[v.Name]
	}
	return regs, func(name string) (int, Type, bool) {
		r, ok := regOf[name]
		if !ok {
			return 0, Type{}, false
		}
		return r, regs[r].Type(), true
	}
}

// TestCompiledMatchesTree: on random expressions of every result type
// over the full coherence vocabulary (ite and equals over every type,
// enum, PID and set literals, Int arithmetic that wraps at the universe's
// width), under random valuations, Prog.Eval returns exactly what
// Expr.Eval returns under the equivalent Env.
func TestCompiledMatchesTree(t *testing.T) {
	for _, width := range []uint{3, 8} {
		u, err := NewUniverseWidth(3, width)
		if err != nil {
			t.Fatal(err)
		}
		e := u.MustDeclareEnum("DiffE", "E0", "E1", "E2")
		voc := CoherenceVocabulary(u, CoherenceOptions{Enums: []*EnumType{e},
			WithEnumConstants: true, WithPIDConstants: true, WithSetLiterals: true})
		vars := diffVars(e)
		types := []Type{BoolType, IntType, PIDType, SetType, EnumOf(e)}
		rng := rand.New(rand.NewSource(int64(width)))
		var stack []Value
		checked := 0
		for iter := 0; iter < 3000; iter++ {
			ty := types[iter%len(types)]
			ex, err := RandomExpr(u, rng, voc, vars, ty, 1+rng.Intn(9))
			if err != nil {
				continue
			}
			if rng.Intn(4) == 0 {
				// Replace a variable by a constant so that Const nodes
				// are compiled too.
				v := vars[rng.Intn(len(vars))]
				ex = Subst(ex, v.Name, NewConst(RandomValue(u, rng, v.VT)))
			}
			for k := 0; k < 4; k++ {
				env := RandomEnv(u, rng, vars)
				regs, slot := regSlots(rng, vars, env)
				want := ex.Eval(u, env)
				if got := Compile(ex, slot).Eval(u, regs, &stack); got != want {
					t.Fatalf("W=%d %s under %v: compiled %v, tree %v", width, ex, env, got, want)
				}
				checked++
			}
		}
		if checked < 10000 {
			t.Fatalf("W=%d: only %d evaluations checked", width, checked)
		}
	}
}

// TestCompiledPanicsLikeTree: a variable with no register, or whose
// register holds another type, makes Prog.Eval panic with Var.Eval's
// message for the same miss, and only when evaluation reaches it.
func TestCompiledPanicsLikeTree(t *testing.T) {
	u := NewUniverse(3)
	e := u.MustDeclareEnum("PanicE", "E0", "E1")
	vars := diffVars(e)
	message := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return "no panic"
	}
	a, b := V("a", IntType), V("b", IntType)
	cases := []struct {
		name string
		ex   Expr
		env  Env // the bindings that differ from the random valuation
		drop string
	}{
		{"unbound", Add(a, V("z", IntType)), nil, ""},
		{"unbound in ite arm", Ite(V("x", BoolType), a, V("z", IntType)), nil, ""},
		{"dropped", Ge(a, b), nil, "b"},
		{"mistyped", Add(a, V("c", IntType)), Env{"c": BoolVal(true)}, ""},
		{"mistyped enum", Eq(V("m", EnumOf(e)), V("k", EnumOf(e))), Env{"k": PIDVal(1)}, ""},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		env := RandomEnv(u, rng, vars)
		for k, v := range c.env {
			env[k] = v
		}
		delete(env, c.drop)
		scope := append([]*Var(nil), vars...)
		for k, v := range c.env {
			scope = append(scope, V(k, v.Type()))
		}
		var live []*Var
		for _, v := range scope {
			if _, ok := env[v.Name]; ok {
				live = append(live, v)
			}
		}
		regs, slot := regSlots(rng, live, env)
		want := message(func() { c.ex.Eval(u, env) })
		prog := Compile(c.ex, slot) // compiling never panics
		got := message(func() { prog.Eval(u, regs, new([]Value)) })
		if want == "no panic" || got != want {
			t.Errorf("%s: compiled panics with %q, tree with %q", c.name, got, want)
		}
	}
}

// TestCompiledEvalAllocatesNothing: once its stack has grown, Prog.Eval
// allocates nothing.
func TestCompiledEvalAllocatesNothing(t *testing.T) {
	u := NewUniverse(3)
	e := u.MustDeclareEnum("AllocE", "E0", "E1")
	vars := diffVars(e)
	rng := rand.New(rand.NewSource(2))
	ex := Ite(And(Eq(V("m", EnumOf(e)), EnumC(e, "E1")), SetContains(V("s", SetType), V("p", PIDType))),
		Add(V("a", IntType), IntC(u, 1)), Card(SetUnion(V("s", SetType), V("t", SetType))))
	env := RandomEnv(u, rng, vars)
	regs, slot := regSlots(rng, vars, env)
	prog := Compile(ex, slot)
	var stack []Value
	prog.Eval(u, regs, &stack)
	if n := testing.AllocsPerRun(100, func() { prog.Eval(u, regs, &stack) }); n != 0 {
		t.Errorf("Prog.Eval allocates %.1f times per run", n)
	}
}
