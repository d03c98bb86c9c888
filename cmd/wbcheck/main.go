// Command wbcheck runs the repository's determinism, numeric-safety and
// concurrency lint suite over the given package patterns (default ./...).
// It is part of the pre-merge gate (scripts/check.sh): a non-empty report
// exits 1.
//
//	go run ./cmd/wbcheck ./...
//	go run ./cmd/wbcheck -json ./...   # machine-readable diagnostics
//
// Passes:
//
//	detmap      range over maps of *ag.Param / model state (random order)
//	seedrand    global math/rand source, literal seeds, time.Now in hot paths
//	floateq     == / != between floating-point operands
//	shapedoc    exported tensor kernels missing the shape-check preamble
//	lockhold    sync.Mutex/RWMutex held across a call that can block on
//	            channels, network, or Wait (transitive, cross-package)
//	deadexport  declarations under internal/ that no non-test file of this
//	            module or of bench/ refers to (oracles and paper components
//	            carry an ignore that says which they are)
//
// (The /metrics exact partitions need no pass: each is declared once with
// internal/metrics, where a counter outside its partition does not build.)
//
// lockhold rides on a cross-package facts layer: the blockfacts summarizer
// runs first over every package in dependency order and exports which
// functions can block, so lockhold reasons about transitive behaviour
// ("MakeBrief fork-joins on a WaitGroup three packages down") instead of
// single bodies. Packages are analyzed in parallel; output is position-sorted
// and deterministic. Goroutine exits and pool returns have no pass: the
// drain, goroutine-baseline and allocation-gate tests guard them.
//
// deadexport needs every user loaded, so it loads the bench/ module as a
// second root and runs only when the pattern is the whole tree (./...); a
// sub-tree run skips it with a note on stderr.
//
// A violation can be suppressed — with justification in review — by a
// `//wbcheck:ignore [pass...] [-- justification]` comment on the same
// line, the line above, or the line above the multi-line statement that
// contains it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"webbrief/internal/analysis"
	"webbrief/internal/analysis/deadexport"
	"webbrief/internal/analysis/detmap"
	"webbrief/internal/analysis/floateq"
	"webbrief/internal/analysis/lockhold"
	"webbrief/internal/analysis/seedrand"
	"webbrief/internal/analysis/shapedoc"
)

var passes = []*analysis.Analyzer{
	detmap.Analyzer,
	floateq.Analyzer,
	lockhold.Analyzer,
	seedrand.Analyzer,
	shapedoc.Analyzer,
}

// secondRoot is the other module whose packages use internal/: deadexport
// loads it beside ./... so a name only the benchmark calls stays live.
const secondRoot = "bench"

// jsonDiagnostic is the -json wire shape, one object per line.
type jsonDiagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Pass string `json:"pass"`
	Msg  string `json:"msg"`
}

func main() {
	list := flag.Bool("passes", false, "list the registered passes and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON objects, one per line")
	flag.Parse()
	if *list {
		dead, _ := deadexport.New(nil)
		for _, a := range append(passes, dead) {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fatal(err)
	}
	if len(patterns) == 1 && patterns[0] == "./..." {
		users, err := analysis.LoadDir(secondRoot, patterns)
		if err != nil {
			fatal(err)
		}
		dead, exported := deadexport.New(append(users, pkgs...))
		passes = append(passes, dead)
		fmt.Fprintf(os.Stderr, "wbcheck: deadexport: %d exported declarations under internal/, users loaded from ./... and %s/./...\n", exported, secondRoot)
	} else {
		fmt.Fprintln(os.Stderr, "wbcheck: deadexport skipped: users outside the pattern are not loaded, run it on ./...")
	}
	diags := analysis.RunPackages(pkgs, passes)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			enc.Encode(jsonDiagnostic{
				File: d.Pos.Filename,
				Line: d.Pos.Line,
				Col:  d.Pos.Column,
				Pass: d.Pass,
				Msg:  d.Msg,
			})
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wbcheck: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wbcheck:", err)
	os.Exit(2)
}
