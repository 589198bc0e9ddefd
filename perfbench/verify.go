package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/mc"
	"transit/internal/obs"
	"transit/internal/protocols"
)

// verifyCase is one protocol of the verify-n4 sweep with its expected
// verdict, which is the paper's: VI, MSI, MESI and the fixed Origin
// protocol verify; the underspecified Origin fails with the Figure 2
// violation (the directory stops tracking a sharer).
type verifyCase struct {
	name string
	// src is TRANSIT source for the lang front end; spec builds the
	// protocol in Go when src is empty.
	src       string
	spec      func(n int) *protocols.Spec
	violation string // "" when the protocol must verify
}

// verifyN4 is the verify-n4 workload: one caller running parse →
// complete → check for each protocol at n = 4, in a seeded order per
// sweep.
type verifyN4 struct {
	*unitBench
	cfg   config
	cases []verifyCase
}

const verifyCaches = 4

func setupVerify(ctx context.Context, cfg config, tr *tracing) (instance, error) {
	var srcs [2]string
	for i, f := range []string{"vi.tr", "msi.tr"} {
		data, err := os.ReadFile(filepath.Join("internal", "lang", "testdata", f))
		if err != nil {
			return nil, err
		}
		srcs[i] = string(data)
	}
	u, err := newUnitBench(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	v := &verifyN4{
		unitBench: u, cfg: cfg,
		cases: []verifyCase{
			{name: "VI", src: srcs[0]},
			{name: "MSI", src: srcs[1]},
			{name: "MESI", spec: protocols.MESI},
			{name: "Origin", spec: func(n int) *protocols.Spec { return protocols.Origin(n, true) }},
			{name: "Origin-buggy", spec: func(n int) *protocols.Spec { return protocols.Origin(n, false) },
				violation: "dir-sharers-accuracy"},
		},
	}
	// Warm up on the cheapest protocol, so that the first timed operation
	// does not pay for lazy initialisation and heap growth.
	r, err := v.pipeline(u.ctx, v.cases[0])
	if err == nil && !r.res.OK {
		err = fmt.Errorf("warm-up: %s does not verify: %v", v.cases[0].name, r.res.Violation)
	}
	if err != nil {
		return nil, errors.Join(err, u.close())
	}
	return v, nil
}

func (v *verifyN4) run(rec *recorder) error {
	rng := rand.New(rand.NewSource(v.cfg.seed))
	for rec.more() {
		for _, i := range rng.Perm(len(v.cases)) {
			c := v.cases[i]
			v.measure(rec, c.name,
				func(ctx context.Context) (unitRun, error) { return v.pipeline(ctx, c) },
				func(res *mc.Result) error {
					switch {
					case c.violation == "" && !(res.OK && res.Complete):
						return fmt.Errorf("expected a complete passing check, got %v", res.Violation)
					case c.violation != "" && (res.Violation == nil || res.Violation.Kind != mc.InvariantViolation || res.Violation.Name != c.violation):
						return fmt.Errorf("expected the %s invariant violation, got %v", c.violation, res.Violation)
					}
					return nil
				})
		}
	}
	return nil
}

func (v *verifyN4) pipeline(ctx context.Context, c verifyCase) (unitRun, error) {
	var (
		sys      *efsm.System
		vocab    *expr.Vocabulary
		snippets []*efsm.Snippet
		invs     []mc.Invariant
	)
	if c.src != "" {
		p, err := buildSource(ctx, c.src, verifyCaches)
		if err != nil {
			return unitRun{}, fmt.Errorf("lang.Build: %w", err)
		}
		sys, vocab, snippets, invs = p.Sys, p.Vocab, p.Snippets, p.Invariants
	} else {
		_, sp := obs.Start(ctx, "protocols.Build")
		p := c.spec(verifyCaches)
		sp.End()
		sys, vocab, snippets, invs = p.Sys, p.Vocab, p.Snippets, p.Invariants
	}
	rep, err := complete(ctx, sys, vocab, snippets, cliLimits())
	if err != nil {
		return unitRun{}, err
	}
	rt, err := newRuntime(ctx, sys)
	if err != nil {
		return unitRun{}, err
	}
	res, err := check(ctx, v.tr, rt, invs, cliMCOptions())
	return unitRun{res: res, rep: rep, rt: rt, invs: invs}, err
}
