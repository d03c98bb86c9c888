// Package analysistest runs one analyzer over a fixture package and checks
// its diagnostics against `// want "substring"` annotations in the fixture
// source — a stdlib-only miniature of golang.org/x/tools' package of the
// same name. Fixtures live under testdata/src/<pkg> (invisible to ./...
// patterns, so known-bad code never trips the real gate) and must compile:
// `go list -export` builds them to produce the type information the passes
// need.
package analysistest

import (
	"regexp"
	"strings"
	"testing"

	"webbrief/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

// expectation is one `// want` annotation.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

// Run loads the fixture package at dir (e.g. "./testdata/src/a"), applies a,
// and requires an exact correspondence between reported diagnostics and
// `// want` annotations: every diagnostic must land on an annotated line and
// contain the annotated substring, and every annotation must be hit.
// Analyzers named in a's Requires (fact producers such as blockfacts) run
// first automatically, exactly as under the real driver.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	RunAll(t, dir, a)
}

// RunAll is Run for several analyzers over one fixture — the shape the
// directive tests need, where one `//wbcheck:ignore` names multiple passes.
func RunAll(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.Load([]string{dir})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	Check(t, pkgs, analyzers...)
}

// Check is RunAll over packages the caller loaded — for a pass built from
// the loaded packages themselves (deadexport scans every root first).
func Check(t *testing.T, pkgs []*analysis.Package, analyzers ...*analysis.Analyzer) {
	t.Helper()
	diags := analysis.RunPackages(pkgs, analyzers)
	wants := collectWants(pkgs)

	for _, d := range diags {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Msg) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

// claim marks the first unmatched expectation satisfied by the diagnostic.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.line == line && strings.HasSuffix(file, w.file) && strings.Contains(msg, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants walks the fixture comments for `// want` annotations.
func collectWants(pkgs []*analysis.Package) []*expectation {
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return wants
}
