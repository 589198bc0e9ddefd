package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/mc"
	"transit/internal/obs"
	"transit/internal/protocols"
)

// designLoop is the design-loop workload: one designer replaying the
// Table 5 case studies A, B and C at n = 3. One operation is one
// iteration — edit the snippet set, complete, build the runtime, model
// check — and a study ends when its check passes. Each completion starts
// from a fresh memo cache, as `transit` does.
type designLoop struct {
	*unitBench
	cfg     config
	studies []core.CaseStudy
	// converge is the Table 5 iteration at which each study's check
	// first passes.
	converge []int
}

func setupDesignLoop(ctx context.Context, cfg config, tr *tracing) (instance, error) {
	u, err := newUnitBench(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	studies := []core.CaseStudy{protocols.CaseStudyA(3), protocols.CaseStudyB(3), protocols.CaseStudyC(3)}
	for i := range studies {
		studies[i].MCOpts.Workers = runtime.GOMAXPROCS(0)
		studies[i].MCOpts.SymmetryReduction = true
	}
	d := &designLoop{unitBench: u, cfg: cfg, studies: studies, converge: []int{6, 4, 2}}
	// Warm up on the first iteration of case study C, so that the first
	// timed operation does not pay for lazy initialisation and heap
	// growth.
	c := studies[2]
	r, err := d.pipeline(u.ctx, c, c.Initial)
	if err == nil && r.res.Violation == nil {
		err = fmt.Errorf("warm-up: %s iteration 1 passed; Table 5 expects a violation", c.Name)
	}
	if err != nil {
		return nil, errors.Join(err, u.close())
	}
	return d, nil
}

func (d *designLoop) run(rec *recorder) error {
	rng := rand.New(rand.NewSource(d.cfg.seed))
	for rec.more() {
		for _, i := range rng.Perm(len(d.studies)) {
			d.replay(rec, i)
		}
	}
	return nil
}

// replay runs one case study from its initial snippets until its check
// passes, or until an iteration disagrees with Table 5. Each iteration is
// one timed operation, whose verdict must be the one Table 5 expects: a
// violation before convergence, a pass at it.
func (d *designLoop) replay(rec *recorder, i int) {
	cs := d.studies[i]
	snippets := append([]*efsm.Snippet(nil), cs.Initial...)
	for iter := 1; ; iter++ {
		if iter > 1 {
			if iter-2 >= len(cs.Fixes) {
				rec.fail("%s: fixes exhausted after iteration %d", cs.Name, iter-1)
				return
			}
			snippets = append(snippets, cs.Fixes[iter-2].Snippets...)
		}
		final := iter == d.converge[i]
		ok := d.measure(rec, fmt.Sprintf("%s/iteration-%d", cs.Name, iter),
			func(ctx context.Context) (unitRun, error) { return d.pipeline(ctx, cs, snippets) },
			func(res *mc.Result) error {
				switch {
				case final && !(res.OK && res.Complete):
					return fmt.Errorf("Table 5 expects a complete passing check, got %v", res.Violation)
				case !final && res.Violation == nil:
					return fmt.Errorf("Table 5 expects a violation, the check passed (complete=%v)", res.Complete)
				}
				return nil
			})
		if !ok || final {
			return
		}
	}
}

func (d *designLoop) pipeline(ctx context.Context, cs core.CaseStudy, snippets []*efsm.Snippet) (unitRun, error) {
	_, sp := obs.Start(ctx, "protocols.Build")
	sys, vocab, invs, err := cs.Build()
	sp.End()
	if err != nil {
		return unitRun{}, err
	}
	rep, err := complete(ctx, sys, vocab, snippets, cs.Limits)
	if err != nil {
		return unitRun{}, err
	}
	rt, err := newRuntime(ctx, sys)
	if err != nil {
		return unitRun{}, err
	}
	res, err := check(ctx, d.tr, rt, invs, cs.MCOpts)
	return unitRun{res: res, rep: rep, rt: rt, invs: invs}, err
}
