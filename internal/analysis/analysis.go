// Package analysis is a minimal, dependency-free static-analysis framework
// in the spirit of golang.org/x/tools/go/analysis, built directly on go/ast
// and go/types so the repository stays stdlib-only. It exists to machine-
// enforce the engine's determinism, numeric-safety and concurrency
// contracts: the conventions the data-parallel trainer and the serving tier
// rely on (fixed-order gradient merges, seed-derived RNGs, shape-checked
// kernels, no lock held across blocking calls, no declaration under
// internal/ that no binary reaches) are promises that nothing in the type system expresses, so
// cmd/wbcheck runs the passes in the sibling packages over the whole tree
// and fails the build on any violation.
//
// Type information comes from `go list -export`, which compiles dependencies
// and hands back export data the stdlib gc importer can read — no vendored
// tooling, no network.
//
// Cross-package analyses build on two driver services: a facts mechanism
// (Pass.ExportObjectFact / Pass.ImportObjectFact — serialized per package,
// visible to dependents; see facts.go) and dependency-ordered scheduling —
// RunPackages analyzes packages in parallel but never starts a package
// before the targets it imports have finished, so bottom-up summaries such
// as blockfacts' blocking call-graph facts are always complete
// when a dependent package reads them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check. Run inspects a fully type-checked package via
// the Pass and reports violations with Pass.Reportf. Requires lists
// analyzers that must run first on every package — typically fact
// producers, such as blockfacts, whose summaries the dependent pass imports.
type Analyzer struct {
	Name     string // short kebab-free identifier, e.g. "detmap"
	Doc      string // one-line contract the pass enforces
	Requires []*Analyzer
	Run      func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	facts *factStore
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pass string
	Pos  token.Position
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Pass, d.Msg)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pass: p.Analyzer.Name,
		Pos:  p.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Several contracts
// (map-order determinism, literal seeds, exact float comparison) are
// legitimately relaxed in tests — determinism tests in particular compare
// floats bit-for-bit on purpose.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// RunPackages applies every analyzer (plus its transitive Requires) to each
// loaded package and returns the surviving diagnostics sorted by position.
// Violations annotated with a `//wbcheck:ignore [pass...] [-- justification]`
// comment on the same line, the line above, or the line above a multi-line
// statement that contains the violation are suppressed.
//
// Packages are analyzed concurrently, bounded by GOMAXPROCS, but a package
// never starts before every target package it imports has finished — the
// partial order that makes imported facts complete. Output is deterministic
// regardless of scheduling: diagnostics are merged and position-sorted at
// the end, and facts are keyed by stable object paths.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	analyzers = expandRequires(analyzers)
	facts := newFactStore()

	done := make(map[string]chan struct{}, len(pkgs))
	for _, pkg := range pkgs {
		done[pkg.ImportPath] = make(chan struct{})
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))

	var (
		mu    sync.Mutex
		diags []Diagnostic
		wg    sync.WaitGroup
	)
	for _, pkg := range pkgs {
		wg.Add(1)
		go func(pkg *Package) {
			defer wg.Done()
			defer close(done[pkg.ImportPath])
			for _, imp := range pkg.Imports {
				if ch, ok := done[imp]; ok {
					<-ch
				}
			}
			sem <- struct{}{}
			pkgDiags := analyzePackage(pkg, analyzers, facts)
			<-sem
			mu.Lock()
			diags = append(diags, pkgDiags...)
			mu.Unlock()
		}(pkg)
	}
	wg.Wait()

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if diags[i].Pass != diags[j].Pass {
			return diags[i].Pass < diags[j].Pass
		}
		return a.Column < b.Column
	})
	return diags
}

// analyzePackage runs every analyzer over one package, in slice order (fact
// producers first, courtesy of expandRequires), and filters the result
// through the package's wbcheck:ignore directives.
func analyzePackage(pkg *Package, analyzers []*Analyzer, facts *factStore) []Diagnostic {
	ignores := collectIgnores(pkg)
	var pkgDiags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &pkgDiags,
			facts:    facts,
		}
		a.Run(pass)
	}
	var kept []Diagnostic
	for _, d := range pkgDiags {
		if !ignores.covers(d) {
			kept = append(kept, d)
		}
	}
	return kept
}

// expandRequires returns analyzers plus their transitive Requires, each once,
// with every requirement ordered before its dependents.
func expandRequires(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	seen := map[*Analyzer]bool{}
	var add func(a *Analyzer)
	add = func(a *Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, r := range a.Requires {
			add(r)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		add(a)
	}
	return out
}

// ignoreSet records wbcheck:ignore directives two ways: point coverage
// (file/line, for same-line and line-above suppression) and line ranges
// (a directive on the line above a multi-line statement covers every line
// of that statement).
type ignoreSet struct {
	points map[string]map[int][]string
	ranges []ignoreRange
}

type ignoreRange struct {
	file       string
	start, end int
	names      []string
}

func nameMatches(names []string, pass string) bool {
	for _, name := range names {
		if name == "" || name == pass {
			return true
		}
	}
	return false
}

func (s *ignoreSet) covers(d Diagnostic) bool {
	lines := s.points[d.Pos.Filename]
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if nameMatches(lines[line], d.Pass) {
			return true
		}
	}
	for _, r := range s.ranges {
		if r.file == d.Pos.Filename && r.start <= d.Pos.Line && d.Pos.Line <= r.end &&
			nameMatches(r.names, d.Pass) {
			return true
		}
	}
	return false
}

// parseIgnoreDirective parses `//wbcheck:ignore [pass...] [-- justification]`
// comment text. Pass names end at the first `--`: justification prose after
// it never re-arms as a name even when it mentions a pass. A bare directive
// (no names) suppresses every pass. ok is false for non-directives,
// including lookalikes such as "wbcheck:ignored".
func parseIgnoreDirective(text string) (names []string, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimPrefix(text, "//"), "wbcheck:ignore")
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false
	}
	for _, f := range strings.Fields(rest) {
		if f == "--" {
			break
		}
		names = append(names, f)
	}
	if len(names) == 0 {
		names = []string{""}
	}
	return names, true
}

func collectIgnores(pkg *Package) *ignoreSet {
	set := &ignoreSet{points: map[string]map[int][]string{}}
	for _, f := range pkg.Files {
		// Directive line -> names, for extending coverage over the spans of
		// multi-line statements below.
		directives := map[int][]string{}
		var file string
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnoreDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				file = pos.Filename
				lines := set.points[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					set.points[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], names...)
				directives[pos.Line] = append(directives[pos.Line], names...)
			}
		}
		if len(directives) == 0 {
			continue
		}
		// A directive covers the whole extent of any statement or
		// declaration that starts on its own line (trailing comment) or on
		// the line below — so a diagnostic on the continuation line of a
		// multi-line statement is still suppressed.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, ast.Decl:
			default:
				return true
			}
			start := pkg.Fset.Position(n.Pos()).Line
			end := pkg.Fset.Position(n.End()).Line
			if end <= start {
				return true
			}
			for _, dirLine := range []int{start, start - 1} {
				if names, ok := directives[dirLine]; ok {
					set.ranges = append(set.ranges, ignoreRange{
						file:  file,
						start: start,
						end:   end,
						names: names,
					})
				}
			}
			return true
		})
	}
	return set
}
