package main

import (
	"fmt"
	"math/rand"
	"strings"

	"transit/internal/expr"
	"transit/internal/lang"
	"transit/internal/server"
	"transit/internal/synth"
)

// solveSpec is one concolic inference problem of the serve-mix pools,
// held twice: as expression trees, which the answer check evaluates, and
// as the wire request printed from them.
type solveSpec struct {
	name     string
	u        *expr.Universe
	enums    []*expr.EnumType
	vars     []*expr.Var
	out      *expr.Var
	examples []synth.ConcolicExample
	req      server.SolveRequest
}

// Integer widths of the pool problems: Table 3 runs its rows at width 4;
// the random problems, which are many, use width 3 so that the exhaustive
// answer check stays near a thousand valuations.
const (
	table3Width = 4
	randomWidth = 3
)

var (
	table3Universe = newUniverse(table3Width)
	randomUniverse = newUniverse(randomWidth)
	randomVocab    = expr.CoherenceVocabulary(randomUniverse, expr.CoherenceOptions{})
)

func newSpec(name string, u *expr.Universe, enums []*expr.EnumType, vopts server.VocabOptions,
	vars []*expr.Var, out *expr.Var, maxSize int, examples ...synth.ConcolicExample) *solveSpec {
	req := server.SolveRequest{
		NumCaches: u.NumCaches(), IntWidth: u.IntWidth(), Vocab: vopts,
		Output: server.VarDecl{Name: out.Name, Type: out.VT.String()}, MaxSize: maxSize,
	}
	for _, v := range vars {
		req.Vars = append(req.Vars, server.VarDecl{Name: v.Name, Type: v.VT.String()})
	}
	for _, et := range enums {
		req.Enums = append(req.Enums, server.EnumDecl{Name: et.Name, Values: et.Values})
	}
	for _, ex := range examples {
		req.Examples = append(req.Examples, server.ExampleDecl{Pre: prefix(ex.Pre), Post: prefix(ex.Post)})
	}
	return &solveSpec{name: name, u: u, enums: enums, vars: vars, out: out, examples: examples, req: req}
}

func newUniverse(width uint) *expr.Universe {
	u, err := expr.NewUniverseWidth(3, width)
	if err != nil {
		panic(err) // constant arguments
	}
	return u
}

// table3Specs are the Table 3 expression-inference rows that finish in
// seconds (max-of-three is left out: it takes minutes).
func table3Specs() []*solveSpec {
	type row struct {
		name    string
		size    int
		outType expr.Type
		vars    []string
		exs     func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample
	}
	ex := func(pre, post expr.Expr) synth.ConcolicExample { return synth.ConcolicExample{Pre: pre, Post: post} }
	rows := []row{
		{"max2-guarded", 6, expr.IntType, []string{"a", "b"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			return []synth.ConcolicExample{ex(expr.Gt(v[0], v[1]), expr.Eq(o, v[0])), ex(expr.Gt(v[1], v[0]), expr.Eq(o, v[1]))}
		}},
		{"max2-functional", 6, expr.IntType, []string{"a", "b"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			return []synth.ConcolicExample{ex(expr.True(), expr.And(expr.Ge(o, v[0]), expr.Ge(o, v[1]), expr.Or(expr.Eq(o, v[0]), expr.Eq(o, v[1]))))}
		}},
		{"min2-functional", 6, expr.IntType, []string{"a", "b"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			return []synth.ConcolicExample{ex(expr.True(), expr.And(expr.Ge(v[0], o), expr.Ge(v[1], o), expr.Or(expr.Eq(o, v[0]), expr.Eq(o, v[1]))))}
		}},
		{"abs-diff", 9, expr.IntType, []string{"a", "b"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			return []synth.ConcolicExample{ex(expr.Gt(v[0], v[1]), expr.Eq(o, expr.Sub(v[0], v[1]))), ex(expr.Ge(v[1], v[0]), expr.Eq(o, expr.Sub(v[1], v[0])))}
		}},
		{"sym-diff", 7, expr.SetType, []string{"s1", "s2"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			un, inter := expr.SetUnion(v[0], v[1]), expr.SetInter(v[0], v[1])
			return []synth.ConcolicExample{
				ex(expr.True(), expr.SubsetEq(o, un)),
				ex(expr.True(), expr.Eq(expr.SetInter(o, inter), expr.NewConst(expr.SetVal(0)))),
				ex(expr.True(), expr.Eq(expr.SetUnion(o, inter), un)),
			}
		}},
		{"largest-set-guarded", 8, expr.SetType, []string{"s1", "s2"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			return []synth.ConcolicExample{
				ex(expr.Gt(expr.Card(v[0]), expr.Card(v[1])), expr.Eq(o, v[0])),
				ex(expr.Ge(expr.Card(v[1]), expr.Card(v[0])), expr.Eq(o, v[1])),
			}
		}},
		{"largest-set-functional", 8, expr.SetType, []string{"s1", "s2"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			return []synth.ConcolicExample{ex(expr.True(), expr.And(
				expr.Ge(expr.Card(o), expr.Card(v[0])), expr.Ge(expr.Card(o), expr.Card(v[1])),
				expr.Or(expr.Eq(o, v[0]), expr.Eq(o, v[1]))))}
		}},
		{"count-others", 5, expr.IntType, []string{"s1", "p1"}, func(v []*expr.Var, o *expr.Var) []synth.ConcolicExample {
			return []synth.ConcolicExample{ex(expr.True(), expr.Eq(o, expr.Card(expr.SetMinus(v[0], expr.Singleton(v[1])))))}
		}},
	}
	var specs []*solveSpec
	for _, r := range rows {
		vars := make([]*expr.Var, len(r.vars))
		for i, n := range r.vars {
			t := expr.IntType
			switch n[0] {
			case 's':
				t = expr.SetType
			case 'p':
				t = expr.PIDType
			}
			vars[i] = expr.V(n, t)
		}
		o := expr.V("o", r.outType)
		specs = append(specs, newSpec(r.name, table3Universe, nil, server.VocabOptions{}, vars, o, r.size+2, r.exs(vars, o)...))
	}

	// The enum row declares its enum in the request.
	u := newUniverse(table3Width)
	et := u.MustDeclareEnum("T3E", "c1", "c2", "c3")
	a, b, e := expr.V("a", expr.IntType), expr.V("b", expr.IntType), expr.V("e", expr.EnumOf(et))
	o := expr.V("o", expr.IntType)
	specs = append(specs, newSpec("enum-conditional", u, []*expr.EnumType{et},
		server.VocabOptions{EnumConstants: true, WithoutEnumIte: true},
		[]*expr.Var{a, b, e}, o, 8,
		synth.ConcolicExample{Pre: expr.Eq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, a)},
		synth.ConcolicExample{Pre: expr.Neq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, b)}))
	return specs
}

// randomSpec draws a Figure 5 style problem: a random target expression
// of size 3 to 5 over two Ints, a Set and a PID, specified concolically
// as o = target.
func randomSpec(rng *rand.Rand, i int) *solveSpec {
	u, voc := randomUniverse, randomVocab
	vars := []*expr.Var{
		expr.V("a", expr.IntType), expr.V("b", expr.IntType),
		expr.V("s", expr.SetType), expr.V("p", expr.PIDType),
	}
	outTypes := []expr.Type{expr.IntType, expr.BoolType, expr.SetType}
	for {
		t := outTypes[rng.Intn(len(outTypes))]
		size := 3 + rng.Intn(3)
		target, err := expr.RandomExpr(u, rng, voc, vars, t, size)
		if err != nil {
			continue
		}
		o := expr.V("o", t)
		return newSpec(fmt.Sprintf("random-%d", i), u, nil, server.VocabOptions{}, vars, o, size+2,
			synth.ConcolicExample{Pre: expr.True(), Post: expr.Eq(o, target)})
	}
}

// prefix prints an expression in TRANSIT surface syntax using only call
// syntax, which parses back unambiguously. (expr.Pretty's infix form does
// not: it prints not(gt(x, y)) as "!x > y", which parses as (!x) > y.)
func prefix(e expr.Expr) string {
	switch n := e.(type) {
	case *expr.Var:
		return n.Name
	case *expr.Const:
		return n.Val.String()
	case *expr.Apply:
		if len(n.Args) == 0 {
			return expr.Pretty(n) // a literal
		}
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = prefix(a)
		}
		return n.Fn.Name + "(" + strings.Join(args, ", ") + ")"
	}
	panic(fmt.Sprintf("perfbench: cannot print %T", e))
}

// parseAnswer reads a synthesized expression, which the server prints
// in surface syntax, over the problem's variables.
func (s *solveSpec) parseAnswer(src string) (expr.Expr, error) {
	sc := lang.ExprScope{U: s.u, Vars: map[string]expr.Type{}, Enums: s.enums}
	for _, v := range s.vars {
		sc.Vars[v.Name] = v.VT
	}
	e, err := lang.ParseAndElabExpr(src, sc)
	if err != nil {
		return nil, err
	}
	if e.Type() != s.out.VT {
		return nil, fmt.Errorf("answer %s has type %s, want %s", src, e.Type(), s.out.VT)
	}
	return e, nil
}

// satisfies checks ans against every example of s by evaluation over
// every valuation of the inputs: pre ⇒ post with o bound to ans.
func (s *solveSpec) satisfies(ans expr.Expr) error {
	env := expr.Env{}
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(s.vars) {
			env[s.out.Name] = ans.Eval(s.u, env)
			for _, ex := range s.examples {
				if ex.Pre.Eval(s.u, env).Bool() && !ex.Post.Eval(s.u, env).Bool() {
					return fmt.Errorf("%s: answer %s violates %s ==> %s at %v", s.name, ans, ex.Pre, ex.Post, env)
				}
			}
			return nil
		}
		for _, v := range expr.ValuesOf(s.u, s.vars[i].VT) {
			env[s.vars[i].Name] = v
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}
