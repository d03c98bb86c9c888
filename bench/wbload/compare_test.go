package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWorsening(t *testing.T) {
	cases := []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 90, "higher", 0.10},
		{100, 110, "higher", -0.10},
		{20, 23, "lower", 0.15},
		{20, 19, "lower", -0.05},
		{0, 5, "lower", 0},
	}
	for _, c := range cases {
		if got := worsening(c.a, c.b, c.better); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}

func TestCompareLedgers(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.10},
		{"name": "brief_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
	}})
	led := func(rps, p50 float64) ledger {
		return ledger{Workloads: map[string]workloadResult{"fleet-hit": {EndToEnd: map[string]metricValue{
			"throughput_rps": {rps, "req/s"}, "brief_p50_ms": {p50, "ms"},
		}}}}
	}
	base := write("a.json", led(5000, 0.40))
	within := write("b.json", led(4600, 0.43))
	breach := write("c.json", led(4400, 0.41))

	var out bytes.Buffer
	if err := compareLedgers(spec, base, within, &out); err != nil {
		t.Errorf("within bounds: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareLedgers(spec, base, breach, &out)
	if err == nil || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a 12%% throughput drop passed a 10%% bound: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), "BREACH") != 1 {
		t.Errorf("want exactly the throughput row flagged:\n%s", out.String())
	}
}
