package mc

import (
	"context"
	"testing"
	"time"

	"transit/internal/obs"
)

// TestCheckTiming covers the Result timing fields: any real BFS takes
// measurable time and reports a positive exploration rate.
func TestCheckTiming(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	res, err := Check(mustRuntime(t, sys), []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %s, want > 0", res.Elapsed)
	}
	if res.StatesPerSec <= 0 {
		t.Errorf("StatesPerSec = %f, want > 0", res.StatesPerSec)
	}
}

// TestCheckCtxSpan asserts the checker emits an mc.bfs span carrying the
// exploration counters as attributes.
func TestCheckCtxSpan(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	col := obs.NewCollect()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	reg := obs.NewRegistry()
	ctx = obs.WithMetrics(ctx, reg)

	res, err := CheckCtx(ctx, mustRuntime(t, sys), []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	if len(spans) != 1 || spans[0].Name != "mc.bfs" {
		t.Fatalf("spans = %+v, want one mc.bfs", spans)
	}
	attrs := map[string]any{}
	for _, a := range spans[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["states"] != int64(res.States) {
		t.Errorf("states attr = %v, want %d", attrs["states"], res.States)
	}
	if attrs["ok"] != true || attrs["complete"] != true {
		t.Errorf("ok/complete attrs = %v/%v", attrs["ok"], attrs["complete"])
	}
	if got := reg.Get("mc.states"); got != int64(res.States) {
		t.Errorf("mc.states counter = %d, want %d", got, res.States)
	}
	if got := reg.Get("mc.runs"); got != 1 {
		t.Errorf("mc.runs counter = %d, want 1", got)
	}
}

// TestVisitedBytesReported: Result.VisitedBytes covers at least an edge
// and a key byte per stored state, and the mc.bfs span and the
// mc.visited_bytes gauge report the same figure.
func TestVisitedBytesReported(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	col := obs.NewCollect()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	reg := obs.NewRegistry()
	ctx = obs.WithMetrics(ctx, reg)

	res, err := CheckCtx(ctx, mustRuntime(t, sys), []Invariant{AtMostOne(client, "Holding")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if min := int64(res.States * (edgeBytes + 1)); res.VisitedBytes < min {
		t.Errorf("VisitedBytes = %d for %d states, want at least %d", res.VisitedBytes, res.States, min)
	}
	var attr any
	for _, a := range col.Spans()[0].Attrs {
		if a.Key == "visited_bytes" {
			attr = a.Value
		}
	}
	if attr != res.VisitedBytes {
		t.Errorf("visited_bytes attr = %v, want %d", attr, res.VisitedBytes)
	}
	if got := reg.Gauge("mc.visited_bytes").Value(); got != res.VisitedBytes {
		t.Errorf("mc.visited_bytes gauge = %d, want %d", got, res.VisitedBytes)
	}
}

// TestPhaseTimesOnSpan: the mc.bfs span carries the summed wall time of
// the expand, merge and check phases, and together they fit inside the
// span.
func TestPhaseTimesOnSpan(t *testing.T) {
	sys, client, _ := tokenSystem(t, tokenOpts{})
	col := obs.NewCollect()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	if _, err := CheckCtx(ctx, mustRuntime(t, sys), []Invariant{AtMostOne(client, "Holding")}, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	span := col.Spans()[0]
	sum := 0.0
	for _, key := range []string{"expand_ms", "merge_ms", "check_ms"} {
		var v any
		for _, a := range span.Attrs {
			if a.Key == key {
				v = a.Value
			}
		}
		ms, ok := v.(float64)
		if !ok || ms < 0 {
			t.Fatalf("%s attr = %v, want a non-negative float", key, v)
		}
		sum += ms
	}
	if sum == 0 {
		t.Error("phase times are all zero")
	}
	if dur := float64(span.Duration) / float64(time.Millisecond); sum > dur {
		t.Errorf("phase times sum to %.3f ms, more than the span's %.3f ms", sum, dur)
	}
}
