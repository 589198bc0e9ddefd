package protocols

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/mc"
	"transit/internal/synth"
)

// goldenRow is everything a model-checking answer commits to: the work
// counts, the verdict, the reduction factor and the counterexample. A
// change to the checker's internals (state keys, visited-set layout,
// frontier order) must leave every row byte-identical.
type goldenRow struct {
	Unit                       string
	States, Transitions, Depth int
	OK, Complete               bool
	Reduction                  string
	Kind, Name, Detail         string
	TraceSHA                   string
}

func rowOf(unit string, res *mc.Result) goldenRow {
	row := goldenRow{
		Unit: unit, States: res.States, Transitions: res.Transitions, Depth: res.Depth,
		OK: res.OK, Complete: res.Complete,
		Reduction: strconv.FormatFloat(res.ReductionFactor, 'g', -1, 64),
	}
	if v := res.Violation; v != nil {
		row.Kind, row.Name, row.Detail = v.Kind.String(), v.Name, v.Detail
		h := sha256.New()
		for _, step := range v.Trace {
			fmt.Fprintf(h, "%s\n%s\n", step.Action, step.State)
		}
		row.TraceSHA = hex.EncodeToString(h.Sum(nil))
	}
	return row
}

// builtinCheck is one builtin protocol at n = 3, completed once and
// checked with symmetry reduction on and off.
type builtinCheck struct {
	name       string
	sym, plain *mc.Result
	// initOrbit is the initial state's orbit size under PID permutation.
	initOrbit int
}

var (
	builtinOnce    sync.Once
	builtinResults []builtinCheck
	builtinErr     error
)

// builtinChecks completes and checks the five builtins at n = 3 once per
// test binary; the golden pin and the symmetry oracle share the results.
func builtinChecks(t *testing.T) []builtinCheck {
	t.Helper()
	builtinOnce.Do(func() {
		builtins := []struct {
			name string
			spec *Spec
		}{{"VI", VI(3)}, {"MSI", MSI(3)}, {"MESI", MESI(3)}, {"Origin", Origin(3, true)}, {"Origin-buggy", Origin(3, false)}}
		for _, b := range builtins {
			spec := b.spec
			if _, err := core.Complete(spec.Sys, spec.Vocab, spec.Snippets,
				core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
				builtinErr = fmt.Errorf("%s: synthesis: %w", spec.Name, err)
				return
			}
			rt, err := efsm.NewRuntime(spec.Sys)
			if err != nil {
				builtinErr = fmt.Errorf("%s: runtime: %w", spec.Name, err)
				return
			}
			bc := builtinCheck{name: b.name}
			for _, sym := range []bool{true, false} {
				res, err := mc.Check(rt, spec.Invariants, mc.Options{
					MaxStates: 2_000_000, CheckDeadlock: true, Workers: 2, SymmetryReduction: sym})
				if err != nil {
					builtinErr = fmt.Errorf("%s (symmetry %v): model check: %w", spec.Name, sym, err)
					return
				}
				if sym {
					bc.sym = res
				} else {
					bc.plain = res
				}
			}
			g, err := efsm.NewSymGroup(rt)
			if err != nil {
				builtinErr = fmt.Errorf("%s: symmetry group: %w", spec.Name, err)
				return
			}
			_, _, bc.initOrbit = g.Encoder().Canonicalize(rt.Initial())
			builtinResults = append(builtinResults, bc)
		}
	})
	if builtinErr != nil {
		t.Fatal(builtinErr)
	}
	return builtinResults
}

// TestGoldenAnswers pins the model checker's answers on the five builtins
// at n = 3 (symmetry reduction on and off) and on every Table 5 iteration
// of case studies A, B and C at n = 3 (symmetry on and off). The rows were
// recorded before the compact state key and edge layout were introduced;
// they must never need editing for a change that only makes the checker
// faster.
func TestGoldenAnswers(t *testing.T) {
	want := map[string]goldenRow{}
	for _, row := range goldenRows {
		want[row.Unit] = row
	}
	check := func(got goldenRow) {
		t.Helper()
		w, ok := want[got.Unit]
		if !ok {
			t.Errorf("no golden row for %s; got\n\t%#v,", got.Unit, got)
			return
		}
		if got != w {
			t.Errorf("%s: answer changed\n got %#v\nwant %#v", got.Unit, got, w)
		}
	}
	for _, bc := range builtinChecks(t) {
		check(rowOf(bc.name+" n=3 sym", bc.sym))
		check(rowOf(bc.name+" n=3 plain", bc.plain))
	}
	for _, cs := range []core.CaseStudy{CaseStudyA(3), CaseStudyB(3), CaseStudyC(3)} {
		for _, sym := range []bool{true, false} {
			cs := cs
			cs.MCOpts.SymmetryReduction = sym
			cs.MCOpts.Workers = 2
			res, err := core.RunCaseStudy(cs)
			if err != nil {
				t.Fatal(err)
			}
			mode := "plain"
			if sym {
				mode = "sym"
			}
			for _, it := range res.Iterations {
				check(rowOf(fmt.Sprintf("%s n=3 %s iter %d", cs.Name, mode, it.Index), it.Check))
			}
		}
	}
}

var goldenRows = []goldenRow{
	{Unit: "VI n=3 sym", States: 544, Transitions: 1520, Depth: 26, OK: true, Complete: true, Reduction: "5.889705882352941", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "VI n=3 plain", States: 3204, Transitions: 8898, Depth: 28, OK: true, Complete: true, Reduction: "1", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "MSI n=3 sym", States: 6082, Transitions: 15348, Depth: 31, OK: true, Complete: true, Reduction: "5.951660637948043", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "MSI n=3 plain", States: 36198, Transitions: 90867, Depth: 32, OK: true, Complete: true, Reduction: "1", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "MESI n=3 sym", States: 4224, Transitions: 10637, Depth: 30, OK: true, Complete: true, Reduction: "5.958806818181818", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "MESI n=3 plain", States: 25170, Transitions: 63132, Depth: 30, OK: true, Complete: true, Reduction: "1", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "Origin n=3 sym", States: 3697, Transitions: 9581, Depth: 31, OK: true, Complete: true, Reduction: "5.928590749256154", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "Origin n=3 plain", States: 21918, Transitions: 56382, Depth: 31, OK: true, Complete: true, Reduction: "1", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "Origin-buggy n=3 sym", States: 235, Transitions: 568, Depth: 7, OK: false, Complete: false, Reduction: "5.885106382978724", Kind: "invariant violation", Name: "dir-sharers-accuracy", Detail: "directory in SHRD does not track Cache0 (in S)", TraceSHA: "e3c1ee2df6115dce8b6c0564b14232b363805ac76575ab83d174a90e83697d2e"},
	{Unit: "Origin-buggy n=3 plain", States: 604, Transitions: 1521, Depth: 7, OK: false, Complete: false, Reduction: "1", Kind: "invariant violation", Name: "dir-sharers-accuracy", Detail: "directory in SHRD does not track Cache2 (in S)", TraceSHA: "84171b90fd2643ad16b742c111890e91b9ead560c175c4224467df69b5ab479f"},
	{Unit: "A: MSI n=3 sym iter 1", States: 355, Transitions: 967, Depth: 6, OK: false, Complete: false, Reduction: "5.830985915492958", Kind: "semantics problem", Name: "unexpected message", Detail: "Cache0 in state I cannot handle CacheNet message {CType:Inv, Dest:C0, Req:C1}", TraceSHA: "99ed5dcbe64f989de625033268bac24b5a23b7eab378455e398d22c783cc097a"},
	{Unit: "A: MSI n=3 sym iter 2", States: 355, Transitions: 967, Depth: 6, OK: false, Complete: false, Reduction: "5.830985915492958", Kind: "semantics problem", Name: "unexpected message", Detail: "Cache0 in state I cannot handle CacheNet message {CType:Inv, Dest:C0, Req:C1}", TraceSHA: "99ed5dcbe64f989de625033268bac24b5a23b7eab378455e398d22c783cc097a"},
	{Unit: "A: MSI n=3 sym iter 3", States: 1100, Transitions: 2918, Depth: 9, OK: false, Complete: false, Reduction: "5.904545454545454", Kind: "deadlock", Name: "deadlock", Detail: "no enabled action", TraceSHA: "6c75c9157f70395a0e1ca5beab46c4d0258ec85259f100d4bb34ecc762d07fbb"},
	{Unit: "A: MSI n=3 sym iter 4", States: 790, Transitions: 2089, Depth: 8, OK: false, Complete: false, Reduction: "5.89367088607595", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state S: no guard accepts ReqNet message {MType:PutM, Sender:C0}", TraceSHA: "1ab1468a7218a11b65e9dda00e373e924d236fbb4d3964e083d49f2cd60ab2ef"},
	{Unit: "A: MSI n=3 sym iter 5", States: 790, Transitions: 2089, Depth: 8, OK: false, Complete: false, Reduction: "5.89367088607595", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state S: no guard accepts ReqNet message {MType:PutM, Sender:C0}", TraceSHA: "1ab1468a7218a11b65e9dda00e373e924d236fbb4d3964e083d49f2cd60ab2ef"},
	{Unit: "A: MSI n=3 sym iter 6", States: 6082, Transitions: 15348, Depth: 31, OK: true, Complete: true, Reduction: "5.951660637948043", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "A: MSI n=3 plain iter 1", States: 754, Transitions: 2016, Depth: 6, OK: false, Complete: false, Reduction: "1", Kind: "semantics problem", Name: "unexpected message", Detail: "Cache0 in state I cannot handle CacheNet message {CType:Inv, Dest:C0, Req:C1}", TraceSHA: "99ed5dcbe64f989de625033268bac24b5a23b7eab378455e398d22c783cc097a"},
	{Unit: "A: MSI n=3 plain iter 2", States: 754, Transitions: 2016, Depth: 6, OK: false, Complete: false, Reduction: "1", Kind: "semantics problem", Name: "unexpected message", Detail: "Cache0 in state I cannot handle CacheNet message {CType:Inv, Dest:C0, Req:C1}", TraceSHA: "99ed5dcbe64f989de625033268bac24b5a23b7eab378455e398d22c783cc097a"},
	{Unit: "A: MSI n=3 plain iter 3", States: 2907, Transitions: 7723, Depth: 9, OK: false, Complete: false, Reduction: "1", Kind: "deadlock", Name: "deadlock", Detail: "no enabled action", TraceSHA: "6c75c9157f70395a0e1ca5beab46c4d0258ec85259f100d4bb34ecc762d07fbb"},
	{Unit: "A: MSI n=3 plain iter 4", States: 1912, Transitions: 5158, Depth: 8, OK: false, Complete: false, Reduction: "1", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state S: no guard accepts ReqNet message {MType:PutM, Sender:C0}", TraceSHA: "1ab1468a7218a11b65e9dda00e373e924d236fbb4d3964e083d49f2cd60ab2ef"},
	{Unit: "A: MSI n=3 plain iter 5", States: 1912, Transitions: 5158, Depth: 8, OK: false, Complete: false, Reduction: "1", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state S: no guard accepts ReqNet message {MType:PutM, Sender:C0}", TraceSHA: "1ab1468a7218a11b65e9dda00e373e924d236fbb4d3964e083d49f2cd60ab2ef"},
	{Unit: "A: MSI n=3 plain iter 6", States: 36198, Transitions: 90867, Depth: 32, OK: true, Complete: true, Reduction: "1", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "B: MSI to MESI n=3 sym iter 1", States: 61, Transitions: 150, Depth: 3, OK: false, Complete: false, Reduction: "5.655737704918033", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state E cannot handle ReqNet message {MType:GetS, Sender:C1}", TraceSHA: "bcd319943e3ae648b349eecf984ee185b6d5fe04d3bbbbae312964d244d9dbe1"},
	{Unit: "B: MSI to MESI n=3 sym iter 2", States: 163, Transitions: 436, Depth: 5, OK: false, Complete: false, Reduction: "5.7975460122699385", Kind: "semantics problem", Name: "unexpected message", Detail: "Cache0 in state E cannot handle CacheNet message {CType:FwdGetS, Dest:C0, Req:C1}", TraceSHA: "9308afa3b1221b7b878aeee743e6002bb6e2e4d2a895b45473c06fc1a900af8c"},
	{Unit: "B: MSI to MESI n=3 sym iter 3", States: 163, Transitions: 444, Depth: 5, OK: false, Complete: false, Reduction: "5.7975460122699385", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state E: no guard accepts ReqNet message {MType:PutM, Sender:C0}", TraceSHA: "42c778cf7465264ad6b2ea0ae75ed1253624877b2f5c89d1b5877837eaf81981"},
	{Unit: "B: MSI to MESI n=3 sym iter 4", States: 4224, Transitions: 10637, Depth: 30, OK: true, Complete: true, Reduction: "5.958806818181818", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "B: MSI to MESI n=3 plain iter 1", States: 115, Transitions: 264, Depth: 3, OK: false, Complete: false, Reduction: "1", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state E cannot handle ReqNet message {MType:GetS, Sender:C2}", TraceSHA: "29ad37b7a6649fe78eea55bbcceadb213b21821fc6b6681bb41d35531f8c94ea"},
	{Unit: "B: MSI to MESI n=3 plain iter 2", States: 379, Transitions: 933, Depth: 5, OK: false, Complete: false, Reduction: "1", Kind: "semantics problem", Name: "unexpected message", Detail: "Cache0 in state E cannot handle CacheNet message {CType:FwdGetS, Dest:C0, Req:C1}", TraceSHA: "9308afa3b1221b7b878aeee743e6002bb6e2e4d2a895b45473c06fc1a900af8c"},
	{Unit: "B: MSI to MESI n=3 plain iter 3", States: 379, Transitions: 981, Depth: 5, OK: false, Complete: false, Reduction: "1", Kind: "semantics problem", Name: "unexpected message", Detail: "Dir in state E: no guard accepts ReqNet message {MType:PutM, Sender:C0}", TraceSHA: "42c778cf7465264ad6b2ea0ae75ed1253624877b2f5c89d1b5877837eaf81981"},
	{Unit: "B: MSI to MESI n=3 plain iter 4", States: 25170, Transitions: 63132, Depth: 30, OK: true, Complete: true, Reduction: "1", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "C: SGI Origin n=3 sym iter 1", States: 235, Transitions: 568, Depth: 7, OK: false, Complete: false, Reduction: "5.885106382978724", Kind: "invariant violation", Name: "dir-sharers-accuracy", Detail: "directory in SHRD does not track Cache0 (in S)", TraceSHA: "e3c1ee2df6115dce8b6c0564b14232b363805ac76575ab83d174a90e83697d2e"},
	{Unit: "C: SGI Origin n=3 sym iter 2", States: 3697, Transitions: 9581, Depth: 31, OK: true, Complete: true, Reduction: "5.928590749256154", Kind: "", Name: "", Detail: "", TraceSHA: ""},
	{Unit: "C: SGI Origin n=3 plain iter 1", States: 604, Transitions: 1521, Depth: 7, OK: false, Complete: false, Reduction: "1", Kind: "invariant violation", Name: "dir-sharers-accuracy", Detail: "directory in SHRD does not track Cache2 (in S)", TraceSHA: "84171b90fd2643ad16b742c111890e91b9ead560c175c4224467df69b5ab479f"},
	{Unit: "C: SGI Origin n=3 plain iter 2", States: 21918, Transitions: 56382, Depth: 31, OK: true, Complete: true, Reduction: "1", Kind: "", Name: "", Detail: "", TraceSHA: ""},
}

// TestSymmetryOracleBuiltins checks symmetry reduction against the plain
// search on the real protocols at n = 3: equal verdicts, violation kinds
// and trace lengths. On a complete pass it also checks the state counts.
// The reduced search covers ReductionFactor × States concrete states: the
// closure of the plain reachable set R under PID permutation. That
// closure holds R and is the union of at most |orbit(initial)| permuted
// copies of R, so plain.States ≤ covered ≤ |orbit(initial)| × plain.States,
// with equality when the initial state is fixed by every permutation.
// (Every builtin starts the directory's Owner at C0, an orbit of n, so
// for them the bounds are what is checked; the golden rows pin the exact
// counts.)
func TestSymmetryOracleBuiltins(t *testing.T) {
	counted := 0
	for _, bc := range builtinChecks(t) {
		sym, plain := bc.sym, bc.plain
		if !sym.SymmetryApplied {
			t.Errorf("%s: symmetry reduction did not apply", bc.name)
			continue
		}
		if sym.OK != plain.OK || sym.Complete != plain.Complete {
			t.Errorf("%s: reduced OK/Complete %v/%v, plain %v/%v",
				bc.name, sym.OK, sym.Complete, plain.OK, plain.Complete)
		}
		if (sym.Violation == nil) != (plain.Violation == nil) {
			t.Errorf("%s: reduced violation %v, plain %v", bc.name, sym.Violation, plain.Violation)
			continue
		}
		if sym.Violation != nil {
			if sym.Violation.Kind != plain.Violation.Kind {
				t.Errorf("%s: reduced violation kind %s, plain %s", bc.name, sym.Violation.Kind, plain.Violation.Kind)
			}
			if len(sym.Violation.Trace) != len(plain.Violation.Trace) {
				t.Errorf("%s: reduced trace has %d steps, plain %d",
					bc.name, len(sym.Violation.Trace), len(plain.Violation.Trace))
			}
			continue
		}
		if !sym.Complete {
			continue
		}
		counted++
		covered := int(math.Round(sym.ReductionFactor * float64(sym.States)))
		if covered < plain.States || covered > bc.initOrbit*plain.States ||
			(bc.initOrbit == 1 && covered != plain.States) {
			t.Errorf("%s: reduced search covers %d states (%d × %g); plain search explores %d, initial orbit %d",
				bc.name, covered, sym.States, sym.ReductionFactor, plain.States, bc.initOrbit)
		}
	}
	if counted == 0 {
		t.Error("no builtin passed completely")
	}
}
