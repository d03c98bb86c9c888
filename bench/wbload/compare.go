package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and the share of the baseline by which it
// may get worse.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given: positive is worse, negative is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareLedgers prints, per end-to-end metric × workload, how much worse
// ledger b is than ledger a against the metric's bound in BENCHMARK.json,
// and returns an error if any pair breaches its bound.
func compareLedgers(specPath, aPath, bPath string, out io.Writer) error {
	var spec benchmarkSpec
	var a, b ledger
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	breaches := 0
	fmt.Fprintf(out, "%-20s %-18s %12s %12s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range spec.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: %s is missing from a ledger", name, m.Name)
			}
			worse := worsening(va.Value, vb.Value, m.Better)
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-20s %-18s %12.5g %12.5g %+8.2f%% %6.0f%%%s\n",
				name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric × workload pairs are worse in %s by more than their bound", breaches, bPath)
	}
	return nil
}
