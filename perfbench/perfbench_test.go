package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"transit/internal/expr"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric lists to
// the metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}

	rec := newRecorder(config{}, workloads["design-loop"])
	rec.lat = []time.Duration{time.Millisecond}
	rec.wall = time.Second
	e2e := map[string]metric{}
	rec.e2eMetrics(e2e, 1)
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	if len(layerMetricUnits) != len(spec.PerLayer) {
		t.Fatalf("program prints %d per-layer metrics, BENCHMARK.json lists %d", len(layerMetricUnits), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if lm := layerMetricUnits[i]; lm.name != m.Name || lm.unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, lm.name, lm.unit)
		}
	}
}

// TestRandomSpecsRoundTrip checks that a generated target printed in the
// wire syntax elaborates back to an expression that passes the
// exhaustive answer check of its own problem.
func TestRandomSpecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := randomSpec(rng, i)
		target := s.examples[0].Post.(*expr.Apply).Args[1]
		ans, err := s.parseAnswer(prefix(target))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := s.satisfies(ans); err != nil {
			t.Fatalf("target fails its own problem: %v", err)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	sort.Float64s(xs)
	if got := percentile(xs, 60); got != 15 {
		t.Errorf("p60 of 1..25 = %v, want 15 (ten samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 13 {
		t.Errorf("p50 of 1..25 = %v, want 13", got)
	}
}
