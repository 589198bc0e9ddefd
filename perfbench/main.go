// Command perfbench is the repository's end-to-end benchmark. It runs the
// TRANSIT workflow in-process through each layer's public entry points —
// the Table 5 design loop, parse → complete → check at n = 4, and the job
// server over loopback HTTP — checks every answer against a reference
// that does not depend on the layer under test, and prints one JSON
// result line as the last line of standard output.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload design-loop|verify-n4|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the per-layer metrics, read from the spans and counters the
// program publishes through obs.Session. README.md explains the choice of
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// workload describes one traffic mix.
type workload struct {
	// setups is how many times set-up runs; setup_s is their median and
	// the last instance is the one measured.
	setups int
	// tailPct is the fixed percentile reported as op_tail_ms. It is the
	// highest percentile that keeps at least ten samples beyond it at the
	// smallest operation count minOps allows.
	tailPct float64
	// minOps is the fewest operations a run measures, even past --seconds.
	minOps int
	setup  func(ctx context.Context, cfg config, tr *tracing) (instance, error)
}

// instance is one set-up copy of a workload.
type instance interface {
	// run executes timed operations until the recorder's budget is spent.
	run(rec *recorder) error
	// verify runs the answer checks deferred out of the timed loop.
	verify(rec *recorder)
	close() error
}

var workloads = map[string]workload{
	"design-loop": {setups: 9, tailPct: 90, minOps: 120, setup: setupDesignLoop},
	"verify-n4":   {setups: 9, tailPct: 70, minOps: 35, setup: setupVerify},
	"serve-mix":   {setups: 5, tailPct: 99, minOps: 1200, setup: setupServeMix},
}

func main() {
	os.Exit(run())
}

func run() int {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w := workloads[cfg.workload]
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%v go=%s num_cpu=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var tr *tracing
	if cfg.trace {
		tr = newTracing()
	}
	ctx := context.Background()

	var inst instance
	setupS := make([]float64, 0, w.setups)
	for i := 0; i < w.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		next, err := w.setup(ctx, cfg, tr)
		d := time.Since(t0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			if inst != nil {
				_ = inst.close()
			}
			return 1
		}
		if inst != nil {
			if err := inst.close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: closing a set-up copy:", err)
				_ = next.close()
				return 1
			}
		}
		inst = next
		setupS = append(setupS, d.Seconds())
	}

	runtime.GC()
	rec := newRecorder(cfg, w)
	tr.begin()
	rec.start = time.Now()
	runErr := inst.run(rec)
	rec.wall = time.Since(rec.start)
	tr.end()
	inst.verify(rec)
	closeErr := inst.close()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run:", runErr)
		return 1
	}
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: close:", closeErr)
		return 1
	}
	if len(rec.lat) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		return 1
	}
	rec.report()

	res := result{
		Correct:   rec.failed == 0 && len(rec.problems) == 0,
		Attempted: len(rec.lat),
		Failed:    rec.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		tr.layerMetrics(rec, res.Metrics)
		if err := tr.writeSpans(filepath.Join(cfg.outDir,
			fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)), cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	} else {
		rec.e2eMetrics(res.Metrics, median(setupS))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "design-loop, verify-n4 or serve-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps, the disk cache and work counts (run.py names it by a hash of the sources)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// recorder collects the timed operations of one run.
type recorder struct {
	cfg   config
	w     workload
	start time.Time
	wall  time.Duration
	// paused is time inside the run that is not measured (server
	// restarts in serve-mix).
	paused time.Duration

	mu       sync.Mutex
	lat      []time.Duration
	failed   int
	problems []string
	// layer holds workload-specific per-layer metrics (serve tier split).
	layer map[string]metric
}

func newRecorder(cfg config, w workload) *recorder {
	return &recorder{cfg: cfg, w: w, layer: map[string]metric{}}
}

// more reports whether another operation should start: the time budget
// is not spent, or fewer than the workload's minimum have run.
func (r *recorder) more() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.lat)
	return n < r.w.minOps || time.Since(r.start)-r.paused < time.Duration(r.cfg.seconds)*time.Second
}

// pause excludes d from the measured time.
func (r *recorder) pause(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused += d
}

// measured is the run's wall time less its pauses.
func (r *recorder) measured() time.Duration { return r.wall - r.paused }

// op records one finished operation; ok is false when its answer was
// wrong or it errored.
func (r *recorder) op(d time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat = append(r.lat, d)
	if !ok {
		r.failed++
	}
}

// fail records why an operation failed, without counting it (op or
// failOps does that).
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failOps marks n already-recorded operations as failed, for checks that
// run after the timed loop.
func (r *recorder) failOps(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
}

func (r *recorder) report() {
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d operations in %.2fs, %d failed\n",
		len(r.lat), r.measured().Seconds(), r.failed)
}

// e2eMetrics fills the end-to-end metrics of an untraced run.
func (r *recorder) e2eMetrics(m map[string]metric, setupS float64) {
	ms := latenciesMS(r.lat)
	m["setup_s"] = metric{setupS, "s"}
	m["op_p50_ms"] = metric{percentile(ms, 50), "ms"}
	m["op_tail_ms"] = metric{percentile(ms, r.w.tailPct), "ms"}
	m["ops_per_s"] = metric{float64(len(ms)) / r.measured().Seconds(), "1/s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["ok_share"] = metric{1 - float64(r.failed)/float64(len(ms)), "share"}
	fmt.Fprintf(os.Stderr, "perfbench: op_p50_ms over %d samples; op_tail_ms is p%g (%d samples beyond it)\n",
		len(ms), r.w.tailPct, len(ms)-int(math.Ceil(r.w.tailPct/100*float64(len(ms)))))
}

func latenciesMS(lat []time.Duration) []float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
