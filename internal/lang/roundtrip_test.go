package lang

import (
	"fmt"
	"math/rand"
	"testing"

	"transit/internal/expr"
)

// roundTripWorld is the scope both round-trip checks run in: three caches,
// one enum, and two input variables of every type, over the coherence
// vocabulary with every literal family switched on.
type roundTripWorld struct {
	u    *expr.Universe
	voc  *expr.Vocabulary
	vars []*expr.Var
	sc   ExprScope
}

func newRoundTripWorld(t testing.TB) roundTripWorld {
	t.Helper()
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	et := u.MustDeclareEnum("T3E", "c1", "c2", "c3")
	vars := []*expr.Var{
		expr.V("a", expr.IntType), expr.V("b", expr.IntType),
		expr.V("x", expr.BoolType), expr.V("y", expr.BoolType),
		expr.V("s1", expr.SetType), expr.V("s2", expr.SetType),
		expr.V("p1", expr.PIDType), expr.V("p2", expr.PIDType),
		expr.V("e", expr.EnumOf(et)), expr.V("o", expr.IntType),
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums: []*expr.EnumType{et}, WithEnumConstants: true,
		WithPIDConstants: true, WithSetLiterals: true,
	})
	sc := ExprScope{U: u, Vars: map[string]expr.Type{}, Enums: []*expr.EnumType{et}}
	for _, v := range vars {
		sc.Vars[v.Name] = v.VT
	}
	return roundTripWorld{u: u, voc: voc, vars: vars, sc: sc}
}

// reparse prints e with expr.Pretty, parses and elaborates the text, and
// checks that the result has e's type and agrees with e on envs. It
// returns the printed text and a description of the first failure ("" on
// success).
func (w roundTripWorld) reparse(e expr.Expr, envs []expr.Env) (string, string) {
	src := expr.Pretty(e)
	back, err := ParseAndElabExpr(src, w.sc)
	if err != nil {
		return src, "does not parse: " + err.Error()
	}
	if back.Type() != e.Type() {
		return src, fmt.Sprintf("parses as type %s, want %s", back.Type(), e.Type())
	}
	for _, env := range envs {
		if got, want := back.Eval(w.u, env), e.Eval(w.u, env); got != want {
			return src, fmt.Sprintf("evaluates to %s, want %s at %v", got, want, env)
		}
	}
	return src, ""
}

func (w roundTripWorld) randomEnvs(rng *rand.Rand, n int) []expr.Env {
	envs := make([]expr.Env, n)
	for i := range envs {
		envs[i] = expr.RandomEnv(w.u, rng, w.vars)
	}
	return envs
}

// TestPrettyRoundTrip checks that expr.Pretty prints parseable surface
// syntax: random Bool, Int, Set and PID expressions over the coherence
// vocabulary, printed and parsed back, keep their type and their value on
// random environments. Answers served over `transit serve` and printed by
// transit-infer are Pretty strings, so a client must be able to feed one
// back as a constraint.
func TestPrettyRoundTrip(t *testing.T) {
	w := newRoundTripWorld(t)
	rng := rand.New(rand.NewSource(1))
	envs := w.randomEnvs(rng, 6)
	failures := 0
	for _, typ := range []expr.Type{expr.BoolType, expr.IntType, expr.SetType, expr.PIDType} {
		for size := 1; size <= 10; size++ {
			for i := 0; i < 400; i++ {
				e, err := expr.RandomExpr(w.u, rng, w.voc, w.vars, typ, size)
				if err != nil {
					break
				}
				if src, msg := w.reparse(e, envs); msg != "" {
					failures++
					if failures <= 5 {
						t.Errorf("%s printed as %q: %s", e, src, msg)
					}
				}
			}
		}
	}
	if failures > 5 {
		t.Errorf("%d round-trip failures in all", failures)
	}
}

// FuzzParseAndElabExpr feeds arbitrary text to the expression front end
// that serve's pre/post strings and transit-infer's constraints reach.
// Nothing may panic, and any input that elaborates must survive
// parse → Pretty → parse with its type and its values intact. The seeds
// are the Table 3 constraints written in surface syntax.
func FuzzParseAndElabExpr(f *testing.F) {
	for _, s := range []string{
		"a > b", "b > a", "o = a", "o = b", "b >= a",
		"o >= a & o >= b & (o = a | o = b)",
		"a >= o & b >= o & (o = a | o = b)",
		"o = a - b", "o = b - a",
		"e = c1", "e != c1",
		"subseteq(s1, setunion(s1, s2))",
		"setinter(s1, setinter(s1, s2)) = {}",
		"setunion(s1, setinter(s1, s2)) = setunion(s1, s2)",
		"setsize(s1) > setsize(s2)", "setsize(s2) >= setsize(s1)",
		"o = setsize(setminus(s1, {p1}))",
		"!(a > b)", "!(x != y)", "ite(x, {C0, p2}, s2) = s1",
	} {
		f.Add(s)
	}
	w := newRoundTripWorld(f)
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseAndElabExpr(src, w.sc)
		if err != nil {
			return
		}
		envs := w.randomEnvs(rand.New(rand.NewSource(int64(len(src)))), 4)
		if printed, msg := w.reparse(e, envs); msg != "" {
			t.Fatalf("%q elaborated to %s, printed as %q: %s", src, e, printed, msg)
		}
	})
}
