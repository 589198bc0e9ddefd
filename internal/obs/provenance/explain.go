package provenance

import (
	"fmt"
	"io"
	"strconv"
)

// ExplainOptions selects what Explain renders. Zero value renders the
// whole ledger: a run summary, every hole's why-tree, and every
// violation's back-linked trace.
type ExplainOptions struct {
	// Hole restricts output to one hole: a ledger ID when it parses as
	// an integer, otherwise a case-insensitive substring of the label.
	Hole string
	// Violations restricts output to the violation section.
	Violations bool
}

// Explain renders a ledger as a human-readable "why" tree. The output
// is purely a function of the ledger contents, so it inherits the
// ledger's determinism guarantees (byte-identical across worker counts
// and cache temperature; see DESIGN.md §16).
func Explain(w io.Writer, l *Ledger, opts ExplainOptions) error {
	if opts.Hole != "" {
		holes := selectHoles(l, opts.Hole)
		if len(holes) == 0 {
			return fmt.Errorf("no hole matches %q", opts.Hole)
		}
		for _, h := range holes {
			explainHole(w, h)
		}
		return nil
	}
	if opts.Violations {
		if len(l.Violations) == 0 {
			fmt.Fprintln(w, "no violations recorded")
			return nil
		}
		for _, v := range l.Violations {
			explainViolation(w, l, v)
		}
		return nil
	}

	fmt.Fprintf(w, "provenance ledger v%d", l.Version)
	if l.Run != "" {
		fmt.Fprintf(w, "  run=%s", l.Run)
	}
	solved := 0
	for _, h := range l.Holes {
		if h.Status == StatusSolved {
			solved++
		}
	}
	fmt.Fprintf(w, "  holes=%d solved=%d violations=%d\n\n", len(l.Holes), solved, len(l.Violations))
	for _, h := range l.Holes {
		explainHole(w, h)
	}
	for _, v := range l.Violations {
		explainViolation(w, l, v)
	}
	return nil
}

func selectHoles(l *Ledger, query string) []*HoleRecord {
	if id, err := strconv.Atoi(query); err == nil {
		if h := l.Hole(id); h != nil {
			return []*HoleRecord{h}
		}
		return nil
	}
	return l.FindHoles(query)
}

func explainHole(w io.Writer, h *HoleRecord) {
	fmt.Fprintf(w, "hole #%d  %s\n", h.ID, h.Label)
	fmt.Fprintf(w, "├─ where: %s %s(%s, %s)", h.Kind, h.Process, h.From, h.Event)
	if h.To != "" {
		fmt.Fprintf(w, " -> %s", h.To)
	}
	fmt.Fprintf(w, "  target %s\n", h.Target)
	switch h.Status {
	case StatusSolved:
		fmt.Fprintf(w, "├─ result: %s\n", h.Result)
	case StatusTrivial:
		fmt.Fprintf(w, "├─ result: %s  (installed without search)\n", h.Result)
	case StatusUnconstrained:
		fmt.Fprintf(w, "├─ result: %s  (no examples constrained this hole)\n", h.Result)
	default:
		fmt.Fprintf(w, "├─ FAILED (%s): %s\n", h.Status, h.Error)
	}

	if len(h.Examples) > 0 {
		fmt.Fprintf(w, "├─ examples (%d):\n", len(h.Examples))
		for _, ex := range h.Examples {
			src := ex.Source
			if src == "" {
				src = "-"
			}
			caseNote := ""
			if ex.Kind == KindSnippet && ex.Case >= 0 {
				caseNote = fmt.Sprintf(" case %d", ex.Case)
			}
			fmt.Fprintf(w, "│    [%d] %s %s%s  #%s\n", ex.Index, ex.Kind, src, caseNote, ex.Digest)
			fmt.Fprintf(w, "│        pre:  %s\n", ex.Pre)
			fmt.Fprintf(w, "│        post: %s\n", ex.Post)
		}
	}

	if len(h.Iterations) > 0 {
		fmt.Fprintf(w, "├─ CEGIS (%d rounds):\n", len(h.Iterations))
		for _, it := range h.Iterations {
			mode := ""
			if it.Resumed {
				mode = " [bank-resume]"
			}
			if it.Restarted {
				mode += " [restarted]"
			}
			if it.Accepted {
				fmt.Fprintf(w, "│    round %d: %s  ACCEPTED%s (enumerated %d, kept %d)\n",
					it.Round, it.Candidate, mode, it.Enumerated, it.Kept)
				continue
			}
			fmt.Fprintf(w, "│    round %d: %s  rejected by example %d%s (enumerated %d, kept %d)\n",
				it.Round, it.Candidate, it.KilledBy, mode, it.Enumerated, it.Kept)
			if it.Witness != "" {
				fmt.Fprintf(w, "│        witness: %s\n", it.Witness)
			}
			if it.CounterOut != "" {
				fmt.Fprintf(w, "│        admitted concretization: output %s\n", it.CounterOut)
			}
		}
	}

	if len(h.Witnesses) > 0 {
		fmt.Fprintf(w, "└─ witness set (distinguishes the answer from the last rival):\n")
		for _, ws := range h.Witnesses {
			src := ws.Source
			if src == "" {
				src = "-"
			}
			fmt.Fprintf(w, "     example %d (%s %s #%s)", ws.Example, ws.Kind, src, ws.Digest)
			if ws.Counterexample != "" {
				fmt.Fprintf(w, "  counterexample: %s", ws.Counterexample)
			}
			fmt.Fprintln(w)
		}
	} else {
		fmt.Fprintf(w, "└─ witness set: (none)\n")
	}
	fmt.Fprintln(w)
}

func explainViolation(w io.Writer, l *Ledger, v *ViolationRecord) {
	fmt.Fprintf(w, "violation: %s %s\n", v.Kind, v.Name)
	if v.Detail != "" {
		fmt.Fprintf(w, "├─ %s\n", v.Detail)
	}
	for _, s := range v.Steps {
		fmt.Fprintf(w, "├─ step %d: %s\n", s.Index, s.Action)
		if len(s.Holes) == 0 {
			continue
		}
		for _, id := range s.Holes {
			if h := l.Hole(id); h != nil {
				fmt.Fprintf(w, "│    └─ hole #%d %s  (%s)\n", id, h.Label, h.Status)
			} else {
				fmt.Fprintf(w, "│    └─ hole #%d\n", id)
			}
		}
	}
	fmt.Fprintf(w, "└─ %d steps, re-run `obs explain -hole N` for any linked hole\n\n", len(v.Steps))
}
