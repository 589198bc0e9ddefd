package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"transit/internal/expr"
	"transit/internal/synth"
)

// EnumModeStats is one enumeration mode's measured work on one Table 3
// problem. Time is the minimum over the configured trials — the standard
// estimator for the noise floor of short benchmarks.
type EnumModeStats struct {
	Time       time.Duration `json:"-"`
	TimeMS     float64       `json:"time_ms"`
	Enumerated int64         `json:"enumerated"`
	Kept       int64         `json:"kept"`
	Iterations int           `json:"iterations"`
	BankReuses int           `json:"bank_reuses"`
	Restarts   int           `json:"bank_fallbacks"`
	// InterpPruned counts candidates discarded by interpretation-indexed
	// pruning (0 when reduction is off for the mode).
	InterpPruned int64 `json:"interp_pruned"`
	// Unrealizable records whether the solve proved its hole impossible
	// (always false for rows that synthesize an answer; present so
	// artifact consumers need no schema change if a row ever regresses).
	Unrealizable bool `json:"unrealizable,omitempty"`
}

// EnumRow compares the restart-per-round search (the seed Algorithm 1
// path: no bank reuse, no interpretation reduction) against the
// bank-reusing interpretation-reduced search on one Table 3 inference
// problem. Both modes are answer-identical; the row quantifies the work
// and time the bank and the reduction save.
type EnumRow struct {
	Name        string        `json:"name"`
	Constraints int           `json:"constraints"`
	Found       string        `json:"found"`
	Restart     EnumModeStats `json:"restart"`
	Bank        EnumModeStats `json:"bank"`
	// EnumRatio is bank candidates enumerated / restart — the fraction of
	// enumeration work the bank-reusing search could not avoid (values > 1
	// mean stale-pool fallbacks outweighed resume savings on this row).
	EnumRatio float64 `json:"enum_ratio"`
	Speedup   float64 `json:"speedup"`
}

// EnumBenchResult is the whole comparison plus its summary statistic.
type EnumBenchResult struct {
	Trials int       `json:"trials"`
	Rows   []EnumRow `json:"rows"`
	// GeomeanSpeedup is the geometric mean of the per-row bank speedups.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// EnumBench runs the short Table 3 rows through both modes.
func EnumBench(trials int) (*EnumBenchResult, error) {
	return EnumBenchCtx(context.Background(), trials)
}

// EnumBenchCtx is EnumBench under a context. Every trial of every mode is
// checked for answer identity against the restart reference and for
// semantic consistency by brute force, so a determinism regression fails
// the benchmark instead of skewing it.
func EnumBenchCtx(ctx context.Context, trials int) (*EnumBenchResult, error) {
	if trials < 1 {
		trials = 3
	}
	res := &EnumBenchResult{Trials: trials}
	logSum := 0.0
	for _, b := range Table3Benchmarks() {
		if b.Long {
			// The 30-minute row would dominate the run; the short rows
			// already cover every vocabulary the suite uses.
			continue
		}
		u, err := expr.NewUniverseWidth(3, 4)
		if err != nil {
			return nil, err
		}
		prob, exs := b.Build(u)
		bankLimits := synth.Limits{MaxSize: b.ExpectedSize + 2, Timeout: 2 * time.Minute}
		restartLimits := bankLimits
		restartLimits.NoBankReuse = true
		restartLimits.NoInterpReduction = true

		row := EnumRow{Name: b.Name, Constraints: len(exs)}
		var found string
		run := func(limits synth.Limits) (EnumModeStats, error) {
			var st EnumModeStats
			for tr := 0; tr < trials; tr++ {
				t0 := time.Now()
				e, stats, err := synth.SolveConcolicCtx(ctx, prob, exs, limits)
				d := time.Since(t0)
				if err != nil {
					return st, fmt.Errorf("bench: %s: %w", b.Name, err)
				}
				if tr == 0 || d < st.Time {
					st.Time = d
				}
				st.Enumerated = stats.Concrete.Enumerated
				st.Kept = stats.Concrete.Kept
				st.Iterations = stats.Iterations
				st.BankReuses = stats.BankReuses
				st.Restarts = stats.Concrete.Restarts
				st.InterpPruned = stats.Concrete.InterpPruned
				st.Unrealizable = stats.Unrealizable
				if found == "" {
					found = e.String()
					if err := verifyConsistent(prob, e, exs); err != nil {
						return st, fmt.Errorf("bench: %s: %w", b.Name, err)
					}
				} else if e.String() != found {
					return st, fmt.Errorf("bench: %s: nondeterministic answer: %s vs %s", b.Name, e, found)
				}
			}
			st.TimeMS = ms(st.Time)
			return st, nil
		}
		if row.Restart, err = run(restartLimits); err != nil {
			return nil, err
		}
		if row.Bank, err = run(bankLimits); err != nil {
			return nil, err
		}
		row.Found = found
		if row.Restart.Enumerated > 0 {
			row.EnumRatio = float64(row.Bank.Enumerated) / float64(row.Restart.Enumerated)
		}
		if row.Bank.Time > 0 {
			row.Speedup = float64(row.Restart.Time) / float64(row.Bank.Time)
		}
		logSum += math.Log(row.Speedup)
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) > 0 {
		res.GeomeanSpeedup = math.Exp(logSum / float64(len(res.Rows)))
	}
	return res, nil
}

// FormatEnum renders the mode comparison.
func FormatEnum(res *EnumBenchResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Enumeration: restart-per-round vs. interpretation-reduced bank-reusing search (identical answers, min of %d trials)\n",
		res.Trials)
	fmt.Fprintf(&sb, "%-22s %4s | %9s %9s %5s | %9s %9s %8s %5s %6s %5s | %7s %8s\n",
		"Benchmark", "Cons",
		"RestTime", "Enum", "Iter",
		"BankTime", "Enum", "Pruned", "Iter", "Reuse", "Fall",
		"EnumR", "Speedup")
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-22s %4d | %9s %9d %5d | %9s %9d %8d %5d %6d %5d | %6.0f%% %7.2fx\n",
			r.Name, r.Constraints,
			r.Restart.Time.Round(time.Microsecond*100), r.Restart.Enumerated, r.Restart.Iterations,
			r.Bank.Time.Round(time.Microsecond*100), r.Bank.Enumerated, r.Bank.InterpPruned,
			r.Bank.Iterations, r.Bank.BankReuses, r.Bank.Restarts,
			100*r.EnumRatio, r.Speedup)
	}
	fmt.Fprintf(&sb, "geometric-mean speedup: %.2fx\n", res.GeomeanSpeedup)
	sb.WriteString("(EnumR is bank/restart candidates enumerated — the search work the bank\n could not avoid; Pruned counts candidates discarded by interpretation-indexed\n signatures; Reuse counts rounds resumed from the bank, Fall rounds whose\n stale pools forced a restart; answers are identical in both modes and every\n trial)\n")
	return sb.String()
}

// WriteEnumArtifact writes the comparison as a JSON artifact
// (BENCH_enum.json by convention) for machine consumption. The shared
// header supplies the machine parallelism.
func WriteEnumArtifact(path string, res *EnumBenchResult) error {
	return WriteArtifact(path, NewHeader("enum_restart_vs_bank", 0), res)
}
