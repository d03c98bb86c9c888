// Command slowtests filters `go test -json` for scripts/check.sh: it prints
// what a plain `go test` would — each package's result line, and the whole
// output of every test that fails or of a package that dies mid-test — then
// the stage's 20 slowest top-level tests. It exits 1 when any test, package
// or build failed, so a stage fails with it even where go test's own status
// is lost.
//
//	go test -json ./... | go run ./scripts/slowtests
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// event is one line of `go test -json` (cmd/test2json).
type event struct {
	Action  string
	Package string
	Test    string
	Elapsed float64
	Output  string
}

// timing is one finished top-level test.
type timing struct {
	name    string
	elapsed float64
}

const slowest = 20

func main() {
	failed := false
	buffered := map[string][]string{} // package + "\x00" + test → output so far
	var times []timing
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<26)
	for in.Scan() {
		var e event
		if err := json.Unmarshal(in.Bytes(), &e); err != nil || e.Action == "" {
			fmt.Println(in.Text()) // not an event: pass it through
			continue
		}
		key := e.Package + "\x00" + e.Test
		switch {
		case e.Action == "build-output":
			fmt.Print(e.Output)
		case e.Action == "build-fail":
			failed = true
		case e.Test == "" && e.Action == "output":
			if e.Output != "PASS\n" {
				fmt.Print(e.Output)
			}
		case e.Test == "" && e.Action == "fail":
			// A panic or timeout ends the package with tests unfinished:
			// print what each of them wrote.
			failed = true
			var unfinished []string
			for k := range buffered {
				if strings.HasPrefix(k, e.Package+"\x00") {
					unfinished = append(unfinished, k)
				}
			}
			sort.Strings(unfinished)
			for _, k := range unfinished {
				fmt.Print(strings.Join(buffered[k], ""))
				delete(buffered, k)
			}
		case e.Test == "":
		case e.Action == "output":
			buffered[key] = append(buffered[key], e.Output)
		case e.Action == "pass" || e.Action == "fail" || e.Action == "skip":
			if e.Action == "fail" {
				failed = true
				fmt.Print(strings.Join(buffered[key], ""))
			}
			delete(buffered, key)
			if e.Action != "skip" && !strings.Contains(e.Test, "/") {
				times = append(times, timing{e.Package + " " + e.Test, e.Elapsed})
			}
		}
	}
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "slowtests:", err)
		os.Exit(1)
	}
	sort.SliceStable(times, func(i, j int) bool { return times[i].elapsed > times[j].elapsed })
	fmt.Printf("   %d slowest of %d tests:\n", min(slowest, len(times)), len(times))
	for _, tm := range times[:min(slowest, len(times))] {
		fmt.Printf("   %8.2fs  %s\n", tm.elapsed, tm.name)
	}
	if failed {
		os.Exit(1)
	}
}
