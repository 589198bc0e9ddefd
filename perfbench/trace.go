package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transit/internal/mc"
	"transit/internal/obs"
)

// opSpan names the root span of one operation; every span the benchmark
// records around a layer's entry point is its child, so an operation's
// spans share the root's ID.
const opSpan = "perfbench.op"

// benchSpans are the spans the benchmark itself records, around each call
// into a layer's public entry point. Every other span comes from the
// program's own instrumentation.
var benchSpans = map[string]bool{
	opSpan:             true,
	"lang.Build":       true,
	"protocols.Build":  true,
	"core.CompleteCtx": true,
	"efsm.NewRuntime":  true,
	"mc.CheckCtx":      true,
	"http.submit":      true,
	"http.await":       true,
}

// layerOf maps a span name to the module it times.
func layerOf(name string) string {
	switch name {
	case opSpan:
		return "harness"
	case "http.submit", "http.await":
		return "client"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"harness", "lang", "protocols", "core", "engine", "synth", "smt", "sat", "efsm", "mc", "server", "client"}

// layerMetricUnits lists every per-layer metric in report order. It must
// match the per_layer list of BENCHMARK.json.
var layerMetricUnits = []struct{ name, unit string }{
	{"mc.check_ms", "ms/op"},
	{"mc.states", "count/op"},
	{"mc.transitions", "count/op"},
	{"mc.states_per_s", "1/s"},
	{"mc.bytes_per_state", "B"},
	{"mc.reduction_factor", "ratio"},
	{"efsm.new_runtime_ms", "ms/op"},
	{"synth.cegis_ms", "ms/op"},
	{"synth.enumerate_ms", "ms/op"},
	{"synth.candidates", "count/op"},
	{"synth.kept_ratio", "ratio"},
	{"synth.cegis_iterations", "count/op"},
	{"synth.bank_reuse_ratio", "ratio"},
	{"smt.encode_ms", "ms/op"},
	{"smt.queries", "count/op"},
	{"smt.clauses", "count/op"},
	{"smt.clauses_reused", "count/op"},
	{"sat.search_ms", "ms/op"},
	{"sat.conflicts", "count/op"},
	{"sat.decisions", "count/op"},
	{"sat.propagations", "count/op"},
	{"core.complete_ms", "ms/op"},
	{"core.complete_self_ms", "ms/op"},
	{"core.guard_check_ms", "ms/op"},
	{"core.guard_checks", "count/op"},
	{"engine.run_ms", "ms/op"},
	{"engine.jobs", "count/op"},
	{"engine.cache.lookup_ms", "ms/op"},
	{"engine.cache.hit_ratio", "ratio"},
	{"diskcache.lookup_ms", "ms/op"},
	{"diskcache.append_ms", "ms/op"},
	{"diskcache.hits", "count/op"},
	{"diskcache.puts", "count/op"},
	{"server.queue_wait_ms", "ms/op"},
	{"server.job_ms", "ms/op"},
	{"server.http_overhead_ms", "ms/op"},
	{"lang.build_ms", "ms/op"},
	{"lang.build_calls", "count/op"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.alloc_mb_per_op", "MB/op"},
	{"runtime.peak_heap_mb", "MB"},
	{"serve.disk_share", "share"},
	{"serve.mem_share", "share"},
	{"serve.miss_share", "share"},
	{"serve.dedup_share", "share"},
	{"server.retained_kb_per_job", "KB/job"},
	{"trace.op_p50_ms", "ms"},
	{"trace.ops_per_s", "1/s"},
	{"self.harness_ms", "ms/op"},
	{"self.lang_ms", "ms/op"},
	{"self.protocols_ms", "ms/op"},
	{"self.core_ms", "ms/op"},
	{"self.engine_ms", "ms/op"},
	{"self.synth_ms", "ms/op"},
	{"self.smt_ms", "ms/op"},
	{"self.sat_ms", "ms/op"},
	{"self.efsm_ms", "ms/op"},
	{"self.mc_ms", "ms/op"},
	{"self.server_ms", "ms/op"},
	{"self.client_ms", "ms/op"},
}

// tracing is the state of a traced run. A nil *tracing (an untraced run)
// is a valid receiver for every method.
type tracing struct {
	agg  *aggregator
	heap heapSampler

	mu     sync.Mutex
	timing bool // inside the timed phase
	reg    *obs.Registry
	// Registry and runtime readings at the start and end of the timed
	// phase; per-layer counters are their differences.
	before, after obs.Snapshot
	rt0, rt1      []metrics.Sample
	// Model-checking totals from the mc.Result of every timed check.
	mcStates, mcTransitions int64
	mcReduced               float64 // Σ states × reduction factor
	mcHeapGrowth            float64 // Σ peak heap growth during a check
}

func newTracing() *tracing {
	return &tracing{agg: newAggregator()}
}

// session opens an observability session whose spans and counters the
// traced run reads; untraced runs get exactly the session opts asks for.
func (t *tracing) session(opts obs.Options) (*obs.Session, error) {
	if t == nil {
		return obs.NewSession(opts)
	}
	opts.Metrics = true
	opts.Extra = append(opts.Extra, t.agg)
	s, err := obs.NewSession(opts)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.reg = s.Metrics
	t.mu.Unlock()
	return s, nil
}

// context threads a fresh session into ctx for the workloads that call
// the pipeline directly (the CLI runs them without one).
func (t *tracing) context(ctx context.Context) (context.Context, *obs.Session, error) {
	if t == nil {
		return ctx, nil, nil
	}
	s, err := t.session(obs.Options{})
	if err != nil {
		return nil, nil, err
	}
	return s.Context(ctx), s, nil
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// begin starts the timed phase: spans and counters from set-up are
// dropped from the per-layer figures.
func (t *tracing) begin() {
	if t == nil {
		return
	}
	t.agg.reset()
	t.mu.Lock()
	t.timing = true
	t.before = t.reg.Snapshot()
	t.mu.Unlock()
	t.rt0 = readRuntime()
	t.heap.start()
}

func (t *tracing) end() {
	if t == nil {
		return
	}
	t.heap.stop()
	t.rt1 = readRuntime()
	t.mu.Lock()
	t.timing = false
	t.after = t.reg.Snapshot()
	t.mu.Unlock()
	t.agg.freeze()
}

// checkStarted marks the start of a model-checking run; checkDone adds
// its result. Both are no-ops when untraced.
func (t *tracing) checkStarted() {
	if t != nil {
		t.heap.openWindow()
	}
}

func (t *tracing) checkDone(res *mc.Result) {
	if t == nil || res == nil {
		return
	}
	growth := t.heap.closeWindow()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.timing {
		return
	}
	t.mcStates += int64(res.States)
	t.mcTransitions += int64(res.Transitions)
	t.mcReduced += float64(res.States) * res.ReductionFactor
	t.mcHeapGrowth += growth
}

// counterNow reads a registry counter mid-run; -1 when untraced.
func (t *tracing) counterNow(name string) int64 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	reg := t.reg
	t.mu.Unlock()
	return reg.Get(name)
}

// counter returns a counter's growth over the timed phase.
func (t *tracing) counter(name string) float64 {
	return float64(counterValue(t.after, name) - counterValue(t.before, name))
}

func counterValue(s obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// histogram returns a histogram's added sum (ms) and count over the timed
// phase.
func (t *tracing) histogram(name string) (sumMS, count float64) {
	find := func(s obs.Snapshot) (time.Duration, int64) {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h.Sum, h.Count
			}
		}
		return 0, 0
	}
	s0, c0 := find(t.before)
	s1, c1 := find(t.after)
	return float64(s1-s0) / float64(time.Millisecond), float64(c1 - c0)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics fills every per-layer metric of a traced run.
func (t *tracing) layerMetrics(rec *recorder, m map[string]metric) {
	ops := float64(len(rec.lat))
	perOp := func(x float64) float64 { return x / ops }
	span := func(name string) spanTotal { return t.agg.total(name) }
	spanMS := func(name string) float64 { return perOp(ms(span(name).total)) }
	v := map[string]float64{}

	check := span("mc.CheckCtx")
	v["mc.check_ms"] = perOp(ms(check.total))
	v["mc.states"] = perOp(float64(t.mcStates))
	v["mc.transitions"] = perOp(float64(t.mcTransitions))
	v["mc.states_per_s"] = ratio(float64(t.mcStates), check.total.Seconds())
	v["mc.bytes_per_state"] = ratio(t.mcHeapGrowth, float64(t.mcStates))
	v["mc.reduction_factor"] = ratio(t.mcReduced, float64(t.mcStates))
	v["efsm.new_runtime_ms"] = spanMS("efsm.NewRuntime")

	v["synth.cegis_ms"] = spanMS("synth.cegis")
	v["synth.enumerate_ms"] = spanMS("synth.enumerate")
	v["synth.candidates"] = perOp(t.counter("synth.candidates"))
	v["synth.kept_ratio"] = ratio(t.counter("synth.kept"), t.counter("synth.candidates"))
	v["synth.cegis_iterations"] = perOp(t.counter("synth.cegis_iterations"))
	v["synth.bank_reuse_ratio"] = ratio(t.counter("synth.bank_reused"), t.counter("synth.cegis_iterations"))

	v["smt.encode_ms"] = spanMS("smt.encode")
	for _, c := range []string{"smt.queries", "smt.clauses", "smt.clauses_reused", "sat.conflicts", "sat.decisions", "sat.propagations", "engine.jobs", "diskcache.hits", "diskcache.puts"} {
		v[c] = perOp(t.counter(c))
	}
	v["sat.search_ms"] = spanMS("sat.search")

	complete := span("core.CompleteCtx")
	v["core.complete_ms"] = perOp(ms(complete.total))
	v["core.complete_self_ms"] = perOp(ms(complete.self))
	v["core.guard_check_ms"] = spanMS("core.guard_check")
	v["core.guard_checks"] = perOp(float64(span("core.guard_check").count))
	v["engine.run_ms"] = spanMS("engine.run")

	lookupMS, _ := t.histogram("engine.cache.lookup_ms")
	v["engine.cache.lookup_ms"] = perOp(lookupMS)
	hits := t.counter("engine.cache.mem_hits") + t.counter("engine.cache.disk_hits")
	v["engine.cache.hit_ratio"] = ratio(hits, hits+t.counter("engine.cache.misses"))
	for _, h := range []string{"diskcache.lookup_ms", "diskcache.append_ms", "server.job_ms"} {
		sum, _ := t.histogram(h)
		v[h] = perOp(sum)
	}
	waitMS, _ := t.histogram("server.queue.wait_ms")
	v["server.queue_wait_ms"] = perOp(waitMS)
	if jobMS, jobs := t.histogram("server.job_ms"); jobs > 0 {
		var clientMS float64
		for _, d := range rec.lat {
			clientMS += ms(d)
		}
		v["server.http_overhead_ms"] = perOp(clientMS - jobMS)
	}

	build := span("lang.Build")
	v["lang.build_ms"] = perOp(ms(build.total))
	v["lang.build_calls"] = perOp(float64(build.count))

	gc := sampleValue(t.rt1[0]) - sampleValue(t.rt0[0])
	busy := (sampleValue(t.rt1[1]) - sampleValue(t.rt0[1])) - (sampleValue(t.rt1[2]) - sampleValue(t.rt0[2]))
	v["runtime.gc_cpu_share"] = ratio(gc, busy)
	v["runtime.alloc_mb_per_op"] = perOp((sampleValue(t.rt1[3]) - sampleValue(t.rt0[3])) / 1e6)
	v["runtime.peak_heap_mb"] = t.heap.peak() / 1e6

	for k, x := range rec.layer {
		v[k] = x.Value
	}
	lat := latenciesMS(rec.lat)
	v["trace.op_p50_ms"] = percentile(lat, 50)
	v["trace.ops_per_s"] = ops / rec.measured().Seconds()

	self := t.agg.selfByLayer()
	// A client's spans wait on server jobs that run on other goroutines,
	// not as their children; the client's own time is what is left.
	self["client"] -= span("server.job").total
	if self["client"] < 0 {
		self["client"] = 0
	}
	for _, l := range selfLayers {
		v["self."+l+"_ms"] = perOp(ms(self[l]))
	}

	for _, lm := range layerMetricUnits {
		m[lm.name] = metric{v[lm.name], lm.unit}
	}
	t.printSplit(self, ops)
}

// printSplit writes the per-layer self-time split to standard error.
func (t *tracing) printSplit(self map[string]time.Duration, ops float64) {
	var total time.Duration
	for _, l := range selfLayers {
		total += self[l]
	}
	fmt.Fprintf(os.Stderr, "perfbench: self time by layer (ms per operation, share of all self time):\n")
	for _, l := range selfLayers {
		if self[l] == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-10s %10.3f  %5.1f%%\n", l, ms(self[l])/ops, 100*ratio(float64(self[l]), float64(total)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans dumps the benchmark's own spans, grouped by operation, and
// the per-name span totals of the timed phase.
func (t *tracing) writeSpans(path string, cfg config) error {
	type spanOut struct {
		Op      uint64  `json:"op"`
		Name    string  `json:"name"`
		Label   string  `json:"label,omitempty"`
		StartMS float64 `json:"start_ms"`
		DurMS   float64 `json:"dur_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	type totalOut struct {
		Count   int64   `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	doc := struct {
		Workload   string              `json:"workload"`
		Seed       int64               `json:"seed"`
		GoVersion  string              `json:"go_version"`
		NumCPU     int                 `json:"num_cpu"`
		GOMAXPROCS int                 `json:"gomaxprocs"`
		Spans      []spanOut           `json:"spans"`
		Totals     map[string]totalOut `json:"totals"`
	}{
		Workload: cfg.workload, Seed: cfg.seed, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Totals: map[string]totalOut{},
	}
	a := t.agg
	a.mu.Lock()
	for _, s := range a.bench {
		op := s.parent
		if s.name == opSpan {
			op = s.id
		}
		doc.Spans = append(doc.Spans, spanOut{op, s.name, s.label, ms(s.start.Sub(a.since)), ms(s.dur), ms(s.self)})
	}
	for name, st := range a.byName {
		doc.Totals[name] = totalOut{st.count, ms(st.total), ms(st.self)}
	}
	a.mu.Unlock()
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// aggregator is an obs.Exporter that keeps, per span name, the count,
// the total duration and the self time (duration minus the union of its
// children's intervals), plus the benchmark's own spans in full.
type aggregator struct {
	mu     sync.Mutex
	on     bool
	since  time.Time
	kids   map[uint64][]interval
	byName map[string]*spanTotal
	bench  []benchSpan
}

type interval struct{ start, end time.Time }

type spanTotal struct {
	count       int64
	total, self time.Duration
}

type benchSpan struct {
	id, parent uint64
	name       string
	label      string // an operation's unit of work
	start      time.Time
	dur, self  time.Duration
}

func newAggregator() *aggregator {
	return &aggregator{kids: map[uint64][]interval{}, byName: map[string]*spanTotal{}}
}

func (a *aggregator) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.on = true
	a.since = time.Now()
	a.byName = map[string]*spanTotal{}
	a.bench = nil
}

func (a *aggregator) freeze() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.on = false
}

// Span implements obs.Exporter. Children end before their parent, so a
// parent's child intervals are complete when it arrives.
func (a *aggregator) Span(d obs.SpanData) {
	end := d.Start.Add(d.Duration)
	a.mu.Lock()
	defer a.mu.Unlock()
	kids := a.kids[d.ID]
	delete(a.kids, d.ID)
	if d.Parent != 0 {
		a.kids[d.Parent] = append(a.kids[d.Parent], interval{d.Start, end})
	}
	if !a.on || d.Start.Before(a.since) {
		return
	}
	self := d.Duration - covered(kids, d.Start, end)
	st := a.byName[d.Name]
	if st == nil {
		st = &spanTotal{}
		a.byName[d.Name] = st
	}
	st.count++
	st.total += d.Duration
	st.self += self
	if benchSpans[d.Name] {
		var label string
		if len(d.Attrs) > 0 {
			label = fmt.Sprint(d.Attrs[0].Value)
		}
		a.bench = append(a.bench, benchSpan{d.ID, d.Parent, d.Name, label, d.Start, d.Duration, self})
	}
}

// Mark implements obs.Exporter; instant marks carry no time.
func (a *aggregator) Mark(obs.SpanData) {}

// Flush implements obs.Exporter.
func (a *aggregator) Flush() error { return nil }

func (a *aggregator) total(name string) spanTotal {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.byName[name]; st != nil {
		return *st
	}
	return spanTotal{}
}

func (a *aggregator) selfByLayer() map[string]time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string]time.Duration{}
	for name, st := range a.byName {
		out[layerOf(name)] += st.self
	}
	return out
}

// covered is the length of the union of ivs clipped to [start, end].
func covered(ivs []interval, start, end time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var sum time.Duration
	cur := start
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			sum += e.Sub(s)
			cur = e
		}
	}
	return sum
}

// heapSampler polls the Go heap so the traced run can report peak heap
// and the heap growth of each model-checking run.
type heapSampler struct {
	max, window, base atomic.Uint64
	quit, done        chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func raise(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapSampler) start() {
	h.quit, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				v := heapNow()
				raise(&h.max, v)
				raise(&h.window, v)
			}
		}
	}()
}

func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

func (h *heapSampler) peak() float64 { return float64(h.max.Load()) }

// openWindow starts tracking the peak heap from the current level.
func (h *heapSampler) openWindow() {
	v := heapNow()
	h.base.Store(v)
	h.window.Store(v)
}

// closeWindow returns how far the heap rose above the window's start.
func (h *heapSampler) closeWindow() float64 {
	raise(&h.window, heapNow())
	return float64(h.window.Load()) - float64(h.base.Load())
}
