package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkSpecMatchesTables keeps BENCHMARK.json and the harness's own
// metric and workload tables in step: the driver refuses a result line
// whose metrics differ from the file's.
func TestBenchmarkSpecMatchesTables(t *testing.T) {
	var spec struct {
		benchmarkSpec
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no BENCHMARK.json above the benchmark directory: %v", err)
	}
	if err := readJSON(path, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q, harness has %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
	}
}
