package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyOptions() options {
	return options{seed: 1, seconds: 0.3, tiny: true}
}

// TestWorkloadsReportEveryMetric runs every workload at a tiny size,
// traced, and checks that each declared metric is emitted with a unit
// and that no operation failed its oracle.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	declared := map[string]string{}
	spec := loadBenchmarkJSON(t)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := tinyOptions()
			o.trace = true
			res, err := w.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			if f := res.metrics["failed_frac"]; f.Value != 0 || f.N != res.Attempted {
				t.Fatalf("failed_frac = %+v", f)
			}
			names := append(append([]string{}, e2eMetrics...), layerNames()...)
			if w.name == "serve-churn" || w.name == "cluster-range" {
				names = append(names, "query_p50_ms", "write_p50_ms")
			}
			for _, name := range names {
				m, ok := res.metrics[name]
				if !ok {
					t.Errorf("%s not reported", name)
					continue
				}
				if m.Unit == "" {
					t.Errorf("%s has no unit", name)
				}
				if unit, ok := declared[name]; ok && unit != m.Unit {
					t.Errorf("%s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
				}
			}
			for _, name := range e2eMetrics {
				if m := res.metrics[name]; m.Value <= 0 || m.N == 0 {
					t.Errorf("end-to-end %s = %v over %d samples, want a positive measurement", name, m.Value, m.N)
				}
			}
			if len(res.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for _, names := range [][]string{e2eMetrics, layerNames()} {
				if _, err := res.summarize(names); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestOracleCountsCorruptedResult damages one result per workload and
// expects the oracle to count it as a failure.
func TestOracleCountsCorruptedResult(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := tinyOptions()
			o.corrupt = true
			res, err := w.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.correct() {
				t.Fatalf("corrupted run passed: attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			if f := res.metrics["failed_frac"]; f.Value <= 0 {
				t.Fatalf("failed_frac = %v, want > 0", f.Value)
			}
		})
	}
}

// TestSameSeedSameInputs checks that inputs depend on the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	a := planServe(newRand(7), serveSpec{d: 5, ingestRows: 16}, 40)
	b := planServe(newRand(7), serveSpec{d: 5, ingestRows: 16}, 40)
	for k := range a {
		if string(a[k].body) != string(b[k].body) {
			t.Fatalf("request %d differs between two plans from one seed", k)
		}
	}
	if fingerprintBlock(genBlock(newRand(3), anticorrelated, 500, 8)) !=
		fingerprintBlock(genBlock(newRand(3), anticorrelated, 500, 8)) {
		t.Fatal("one seed drew two different blocks")
	}
}

func TestQuantilesFromRawSamples(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if got := s.median(); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := s.quantile(0.9); got != 4.6 {
		t.Fatalf("p90 = %v, want 4.6", got)
	}
	if reportable(0.9, 99) || !reportable(0.9, 100) {
		t.Fatal("p90 needs at least 10 samples beyond it")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists
// the program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("end_to_end has %d metrics, program %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i] {
			t.Errorf("end_to_end %d: %s vs %s", i, m.Name, e2eMetrics[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer has %d metrics, program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer %d: %s/%s vs %s/%s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
