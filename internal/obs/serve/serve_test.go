package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"transit/internal/obs"
)

// startServer stands up a full session+server pair on a loopback port,
// the way the CLIs wire them.
func startServer(t *testing.T) (*Server, *obs.Session, context.Context) {
	t.Helper()
	srv := New("127.0.0.1:0")
	sess, err := obs.NewSession(obs.Options{
		Metrics:      true,
		FlightPath:   "unused",
		FlightEvents: 64,
		Extra:        srv.Exporters(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(sess)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sess, sess.Context(context.Background())
}

func get(t *testing.T, srv *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	srv, sess, _ := startServer(t)
	sess.Metrics.Counter("mc.states").Add(99)
	sess.Metrics.Histogram("smt.solve_ms").Observe(3 * time.Millisecond)
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE transit_mc_states counter",
		"transit_mc_states 99",
		"# TYPE transit_smt_solve_ms histogram",
		`transit_smt_solve_ms_bucket{le="+Inf"} 1`,
		"transit_smt_solve_ms_p95",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestVarsEndpoint(t *testing.T) {
	srv, sess, _ := startServer(t)
	sess.Metrics.Counter("synth.solves").Add(5)
	code, body := get(t, srv, "/vars")
	if code != http.StatusOK {
		t.Fatalf("/vars = %d", code)
	}
	var v struct {
		PID        int `json:"pid"`
		Goroutines int `json:"goroutines"`
		Metrics    struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/vars not JSON: %v\n%s", err, body)
	}
	if v.PID == 0 || v.Goroutines == 0 {
		t.Errorf("/vars runtime stats empty: %+v", v)
	}
	found := false
	for _, c := range v.Metrics.Counters {
		if c.Name == "synth.solves" && c.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("/vars missing synth.solves counter:\n%s", body)
	}
}

// TestRunsEndpoint drives the live aggregator with the marks the real
// pipeline emits and checks the /runs JSON carries the gauges, including
// the states/sec rate.
func TestRunsEndpoint(t *testing.T) {
	srv, _, ctx := startServer(t)
	_, sp := obs.Start(obs.WithTrack(ctx, 2), "synth.cegis")
	sp.Mark("synth.round", obs.Int("iteration", 3), obs.Int("concrete_examples", 7))
	sp.Mark("synth.tier", obs.Int("size", 4), obs.Int64("enumerated", 1500))
	sp.Mark("mc.progress", obs.Int64("states", 4096), obs.Int64("transitions", 9000),
		obs.Int64("queue", 12), obs.Int64("depth", 5), obs.Float("states_per_sec", 2048.5),
		obs.Int64("frontier_depth", 5))
	code, body := get(t, srv, "/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs = %d", code)
	}
	var v RunsSnapshot
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if v.MC == nil || v.MC.States != 4096 || v.MC.StatesPerSec != 2048.5 || v.MC.Done ||
		v.MC.FrontierDepth != 5 {
		t.Errorf("/runs mc gauges = %+v", v.MC)
	}
	if len(v.Synth) != 1 || v.Synth[0].Track != 2 || v.Synth[0].Iteration != 3 ||
		v.Synth[0].Tier != 4 || v.Synth[0].Enumerated != 1500 {
		t.Errorf("/runs synth gauges = %+v", v.Synth)
	}
	if v.Engine == nil {
		t.Error("/runs engine list is null, want [] when idle")
	}
	sp.End()

	// A closing mc.bfs span flips the checker to done with final totals.
	_, bfs := obs.Start(ctx, "mc.bfs")
	bfs.SetAttr(obs.Int64("states", 5000), obs.Int64("transitions", 11000),
		obs.Int64("depth", 6), obs.Float("states_per_sec", 1000),
		obs.Int64("canonical_states", 5000), obs.Float("reduction_factor", 23.9))
	bfs.End()
	_, body = get(t, srv, "/runs")
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.MC == nil || !v.MC.Done || v.MC.States != 5000 ||
		v.MC.CanonicalStates != 5000 || v.MC.ReductionFactor != 23.9 {
		t.Errorf("/runs mc after bfs close = %+v", v.MC)
	}
}

// TestTraceLiveSSE subscribes to the live stream and checks a span close
// arrives as a well-formed SSE data frame holding an NDJSON record.
func TestTraceLiveSSE(t *testing.T) {
	srv, _, ctx := startServer(t)
	req, _ := http.NewRequest("GET", "http://"+srv.Addr()+"/trace/live", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Wait for the subscription to land before emitting the span.
	deadline := time.Now().Add(2 * time.Second)
	for srv.broadcast.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	_, sp := obs.Start(ctx, "smt.solve")
	sp.End()

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before span arrived")
			}
			if !strings.HasPrefix(line, "data: ") {
				continue // comments, blank separators
			}
			var rec struct {
				Type string `json:"type"`
				Name string `json:"name"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("SSE payload not JSON: %v (%q)", err, line)
			}
			if rec.Type == "span" && rec.Name == "smt.solve" {
				return // success
			}
		case <-timeout:
			t.Fatal("span never arrived on /trace/live")
		}
	}
}

func TestFlightEndpoint(t *testing.T) {
	srv, _, ctx := startServer(t)
	_, sp := obs.Start(ctx, "engine.run")
	sp.End()
	code, body := get(t, srv, "/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}
	first := strings.SplitN(body, "\n", 2)[0]
	var h struct {
		Type   string `json:"type"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(first), &h); err != nil || h.Type != "flight" {
		t.Fatalf("/flight header = %q (err %v)", first, err)
	}
	if !strings.Contains(body, `"engine.run"`) {
		t.Errorf("/flight missing recorded span:\n%s", body)
	}

	// Without a recorder the endpoint 404s instead of panicking.
	bare := New("127.0.0.1:0")
	if err := bare.Start(); err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if code, _ := get(t, bare, "/flight"); code != http.StatusNotFound {
		t.Errorf("/flight without recorder = %d, want 404", code)
	}
}

func TestPprofMounted(t *testing.T) {
	srv, _, _ := startServer(t)
	code, body := get(t, srv, "/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/goroutine = %d:\n%.200s", code, body)
	}
}

// TestBroadcastConcurrent is the race-mode stress: concurrent span
// closes (the worker-pool shape) against subscribers that come and go,
// including slow ones that force the drop path.
func TestBroadcastConcurrent(t *testing.T) {
	b := NewBroadcast()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churning subscribers: subscribe, drain a little, cancel.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ch, cancel := b.Subscribe()
				for j := 0; j < 10; j++ {
					select {
					case <-ch:
					case <-time.After(time.Millisecond):
					}
				}
				cancel()
			}
		}()
	}
	// One stalled subscriber that never reads: exercises the drop path.
	_, cancelStalled := b.Subscribe()
	defer cancelStalled()

	// Producers: concurrent span closes and marks.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.Span(obs.SpanData{ID: uint64(g*100000 + i), Name: "synth.size",
					Start: time.Now(), Duration: time.Microsecond})
				b.Mark(obs.SpanData{ID: uint64(g*100000 + i), Name: "mc.progress",
					Start: time.Now(), Attrs: []obs.Attr{obs.Int64("states", int64(i))}})
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := b.Subscribers(); n != 1 {
		t.Errorf("subscribers after churn = %d, want 1 (the stalled one)", n)
	}
}

// TestLiveConcurrent races the live aggregator: marks from many tracks
// against snapshots.
func TestLiveConcurrent(t *testing.T) {
	l := NewLive()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Mark(obs.SpanData{Name: "synth.round", Track: g,
					Attrs: []obs.Attr{obs.Int("iteration", i)}, Start: time.Now()})
				l.Mark(obs.SpanData{Name: "mc.progress",
					Attrs: []obs.Attr{obs.Int64("states", int64(i))}, Start: time.Now()})
				if i%50 == 0 {
					l.Span(obs.SpanData{Name: "engine.job", Track: g, Start: time.Now()})
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			mc, _ := l.Snapshot()
			if mc == nil {
				t.Error("no mc gauges after concurrent marks")
			}
			return
		default:
			l.Snapshot()
		}
	}
}

func TestIndex(t *testing.T) {
	srv, _, _ := startServer(t)
	code, body := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/trace/live") {
		t.Errorf("index = %d:\n%s", code, body)
	}
	if code, _ := get(t, srv, "/nonexistent"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}
