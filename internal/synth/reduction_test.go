package synth

import (
	"context"
	"errors"
	"testing"
	"time"

	"transit/internal/expr"
)

// reductionBench is one CEGIS workload of the interpretation-reduction
// parity suite: a Table 3-shaped problem plus the size its known winner
// has, used to bound the search.
type reductionBench struct {
	name         string
	expectedSize int
	build        func(u *expr.Universe) (Problem, []ConcolicExample)
}

// reductionIntProblem builds a coherence-vocabulary problem whose variable
// types are derived from the conventional name prefixes used across the
// suite (s* sets, p* PIDs, everything else ints).
func reductionIntProblem(u *expr.Universe, outType expr.Type, names ...string) (Problem, []*expr.Var) {
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	var vars []*expr.Var
	for _, n := range names {
		t := expr.IntType
		switch n[0] {
		case 's':
			t = expr.SetType
		case 'p':
			t = expr.PIDType
		}
		vars = append(vars, expr.V(n, t))
	}
	return Problem{U: u, Vocab: voc, Vars: vars, Output: expr.V("o", outType)}, vars
}

// reductionBenches covers the CEGIS shapes that stress the bank/reduction
// machinery differently: a guarded spec whose rounds resume cleanly, the
// deep-winner workload whose rounds jump sizes (abs-diff), a
// mixed-enum-typed conditional, the set workload whose stale rounds are
// skipped by the adopt-time probe (sym-diff), and a small single-round
// solve.
func reductionBenches() []reductionBench {
	return []reductionBench{
		{"max2-guarded", 6, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.IntType, "a", "b")
			a, b := vars[0], vars[1]
			o := p.Output
			return p, []ConcolicExample{
				{Pre: expr.Gt(a, b), Post: expr.Eq(o, a)},
				{Pre: expr.Gt(b, a), Post: expr.Eq(o, b)},
			}
		}},
		{"abs-diff", 9, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.IntType, "a", "b")
			a, b := vars[0], vars[1]
			o := p.Output
			return p, []ConcolicExample{
				{Pre: expr.Gt(a, b), Post: expr.Eq(o, expr.Sub(a, b))},
				{Pre: expr.Ge(b, a), Post: expr.Eq(o, expr.Sub(b, a))},
			}
		}},
		{"enum-conditional", 6, func(u *expr.Universe) (Problem, []ConcolicExample) {
			et := u.MustDeclareEnum("RedE", "c1", "c2", "c3")
			voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
				Enums: []*expr.EnumType{et}, WithEnumConstants: true, WithoutEnumIte: true,
			})
			a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
			e := expr.V("e", expr.EnumOf(et))
			o := expr.V("o", expr.IntType)
			p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b, e}, Output: o}
			return p, []ConcolicExample{
				{Pre: expr.Eq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, a)},
				{Pre: expr.Neq(e, expr.EnumC(et, "c1")), Post: expr.Eq(o, b)},
			}
		}},
		{"sym-diff", 7, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.SetType, "s1", "s2")
			s1, s2 := vars[0], vars[1]
			o := p.Output
			un := expr.SetUnion(s1, s2)
			inter := expr.SetInter(s1, s2)
			return p, []ConcolicExample{
				{Pre: expr.True(), Post: expr.SubsetEq(o, un)},
				{Pre: expr.True(), Post: expr.Eq(expr.SetInter(o, inter), expr.NewConst(expr.SetVal(0)))},
				{Pre: expr.True(), Post: expr.Eq(expr.SetUnion(o, inter), un)},
			}
		}},
		{"count-others", 5, func(u *expr.Universe) (Problem, []ConcolicExample) {
			p, vars := reductionIntProblem(u, expr.IntType, "s1", "p1")
			s1, p1 := vars[0], vars[1]
			o := p.Output
			return p, []ConcolicExample{{
				Pre:  expr.True(),
				Post: expr.Eq(o, expr.Card(expr.SetMinus(s1, expr.Singleton(p1)))),
			}}
		}},
	}
}

// TestSigKeyLayout pins the signature-key byte layout the bank and shadow
// machinery rely on: a fixed-width type header followed by one fixed-width
// record per signature coordinate. Both widths are load-bearing — key
// extension appends records in place, the goal test is a fixed-offset
// suffix compare, and shadow keys slice off the header — so a change here
// must be deliberate and versioned.
func TestSigKeyLayout(t *testing.T) {
	if sigKeyHeaderLen != 2 {
		t.Fatalf("sigKeyHeaderLen = %d, want 2", sigKeyHeaderLen)
	}
	if sigValEncLen != 10 {
		t.Fatalf("sigValEncLen = %d, want 10", sigValEncLen)
	}
	u := expr.NewUniverse(3)
	vals := []expr.Value{expr.IntVal(u, 0), expr.IntVal(u, 3), expr.SetVal(0), expr.SetVal(5)}
	for _, v := range vals {
		if got := len(v.AppendEncoding(nil)); got != sigValEncLen {
			t.Errorf("AppendEncoding(%v) = %d bytes, want %d", v, got, sigValEncLen)
		}
	}
	key := appendSigKey(nil, expr.IntType, vals)
	if want := sigKeyHeaderLen + len(vals)*sigValEncLen; len(key) != want {
		t.Errorf("appendSigKey over %d values = %d bytes, want %d", len(vals), len(key), want)
	}
	// Extension is append-only: the shorter key must be a byte prefix of
	// the longer one, which is what lets resumed rounds extend keys in
	// place.
	short := appendSigKey(nil, expr.IntType, vals[:2])
	if string(key[:len(short)]) != string(short) {
		t.Error("key extension is not append-only: shorter key is not a prefix")
	}
}

// TestInterpReductionParity pins the reduction's central contract: with
// interpretation reduction and bank reuse enabled, SolveConcolic returns
// exactly the expression the restart-per-round baseline returns, on every
// workload of the suite.
func TestInterpReductionParity(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		name string
		mut  func(*Limits)
	}{
		{"baseline", func(l *Limits) { l.NoBankReuse = true; l.NoInterpReduction = true }},
		{"bank-only", func(l *Limits) { l.NoInterpReduction = true }},
		{"bank+reduction", func(l *Limits) {}},
	}
	for _, b := range reductionBenches() {
		// One universe per workload: identity-level equality (enum types,
		// interned values) must hold across configurations.
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		prob, exs := b.build(u)
		var ref expr.Expr
		for _, cf := range configs {
			limits := Limits{MaxSize: b.expectedSize + 2, Timeout: 2 * time.Minute}
			cf.mut(&limits)
			e, _, err := SolveConcolicCtx(ctx, prob, exs, limits)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, cf.name, err)
			}
			if ref == nil {
				ref = e
				continue
			}
			if !expr.Equal(ref, e) {
				t.Errorf("%s/%s: answer diverged: %s vs baseline %s", b.name, cf.name, e, ref)
			}
		}
	}
}

// TestUnrealizableHole exercises the unrealizability atlas end to end: a
// vocabulary with no functions can only express the input variables, so a
// spec demanding max(a, b) is impossible — and provably so, since the
// atlas reaches closure immediately. The solve must fail with
// ErrUnrealizable (not the retryable ErrNoExpression) and flag the stats.
func TestUnrealizableHole(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	p := Problem{U: u, Vocab: expr.NewVocabulary(), Vars: []*expr.Var{a, b}, Output: o}
	exs := []ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
			expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
	}}
	_, stats, err := SolveConcolicCtx(context.Background(), p, exs, Limits{MaxSize: 4, Timeout: 30 * time.Second})
	if err == nil {
		t.Fatal("solve succeeded on an unrealizable hole")
	}
	if !errors.Is(err, ErrUnrealizable) {
		t.Fatalf("error = %v, want ErrUnrealizable", err)
	}
	if errors.Is(err, ErrNoExpression) {
		t.Fatal("ErrUnrealizable must not wrap ErrNoExpression: retries would multiply the exhaustion cost")
	}
	if !stats.Unrealizable {
		t.Error("stats.Unrealizable not set")
	}
}

// TestUnrealizableInconclusiveKeepsNoExpression pins the atlas's
// conservative side: when reduction is disabled the check never runs, so
// an exhausted search keeps its plain retryable ErrNoExpression.
func TestUnrealizableInconclusiveKeepsNoExpression(t *testing.T) {
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	o := expr.V("o", expr.IntType)
	p := Problem{U: u, Vocab: expr.NewVocabulary(), Vars: []*expr.Var{a, b}, Output: o}
	exs := []ConcolicExample{{
		Pre: expr.True(),
		Post: expr.And(expr.Ge(o, a), expr.Ge(o, b),
			expr.Or(expr.Eq(o, a), expr.Eq(o, b))),
	}}
	limits := Limits{MaxSize: 4, Timeout: 30 * time.Second, NoInterpReduction: true}
	_, stats, err := SolveConcolicCtx(context.Background(), p, exs, limits)
	if !errors.Is(err, ErrNoExpression) {
		t.Fatalf("error = %v, want ErrNoExpression", err)
	}
	if errors.Is(err, ErrUnrealizable) || stats.Unrealizable {
		t.Fatal("unrealizability must not be asserted with the atlas disabled")
	}
}

// FuzzInterpReductionParity differentially fuzzes the reduced bank-reusing
// solver against the sequential restart-per-round baseline: pointwise
// specs generated from the fuzzed input pin concrete outputs for max-style
// workloads, and both solvers must return the same expression (or fail
// identically). Multi-example specs drive multi-round CEGIS, which is
// where bank extension, shadow adoption, and the stale-skip probe all run.
func FuzzInterpReductionParity(f *testing.F) {
	f.Add(byte(1), byte(2), byte(3), byte(0), byte(2), byte(2), byte(2), false)
	f.Add(byte(0), byte(3), byte(1), byte(1), byte(3), byte(2), byte(3), true)
	f.Add(byte(2), byte(0), byte(0), byte(2), byte(1), byte(3), byte(1), false)
	f.Fuzz(func(t *testing.T, a1, b1, a2, b2, a3, b3, n byte, useMin bool) {
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
		a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
		o := expr.V("o", expr.IntType)
		p := Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: o}
		dom := int64(u.DomainSize(expr.IntType))
		if dom == 0 {
			t.Skip("no int domain")
		}
		pick := func(x byte) expr.Expr { return expr.NewConst(expr.IntVal(u, int64(x)%dom)) }
		out := func(x, y byte) expr.Expr {
			xi, yi := int64(x)%dom, int64(y)%dom
			if useMin == (xi < yi) {
				return expr.NewConst(expr.IntVal(u, xi))
			}
			return expr.NewConst(expr.IntVal(u, yi))
		}
		pairs := [][2]byte{{a1, b1}, {a2, b2}, {a3, b3}}
		var exs []ConcolicExample
		for i := 0; i < 1+int(n)%3; i++ {
			av, bv := pairs[i][0], pairs[i][1]
			exs = append(exs, ConcolicExample{
				Pre:  expr.And(expr.Eq(a, pick(av)), expr.Eq(b, pick(bv))),
				Post: expr.Eq(o, out(av, bv)),
			})
		}
		limits := Limits{MaxSize: 7, Timeout: time.Minute}
		base := limits
		base.NoBankReuse = true
		base.NoInterpReduction = true
		eRef, _, errRef := SolveConcolicCtx(context.Background(), p, exs, base)
		eRed, _, errRed := SolveConcolicCtx(context.Background(), p, exs, limits)
		if (errRef == nil) != (errRed == nil) {
			t.Fatalf("outcome diverged: baseline err=%v reduced err=%v", errRef, errRed)
		}
		if errRef == nil && !expr.Equal(eRef, eRed) {
			t.Fatalf("answer diverged: baseline %s reduced %s", eRef, eRed)
		}
	})
}
