package deadexport_test

import (
	"testing"

	"webbrief/internal/analysis"
	"webbrief/internal/analysis/analysistest"
	"webbrief/internal/analysis/deadexport"
)

// check loads the fixture packages matching patterns, scans them as the one
// module root, and requires the pass's diagnostics to match their `// want`
// annotations exactly. It returns the exported-declaration count.
func check(t *testing.T, patterns ...string) int {
	t.Helper()
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		t.Fatal(err)
	}
	a, exported := deadexport.New(pkgs)
	analysistest.Check(t, pkgs, a)
	return exported
}

// TestDeadexport covers one tree: dead func, method, type, const and var
// reported; live through another package, through an interface by name
// (declared in the tree or well-known in the standard library) and through a
// generic instantiation silent; a name only a _test.go file uses still
// reported; unexported funcs policed, unexported methods not; the ignore
// directive honoured; packages under testdata/, test-support packages and
// packages outside internal/ never subjects. Wildcards skip testdata
// directories, hence the second pattern.
func TestDeadexport(t *testing.T) {
	exported := check(t, "./testdata/src/basic/...", "./testdata/src/basic/internal/lib/testdata/gen")
	if want := 35; exported != want {
		t.Fatalf("counted %d exported declarations in basic/internal/lib, want %d", exported, want)
	}
}

// TestDeadexportSecondRoot loads a nested module the way cmd/wbcheck loads
// bench/: a name only that module uses is live, a name nobody uses is not.
func TestDeadexportSecondRoot(t *testing.T) {
	first, err := analysis.Load([]string{"./testdata/src/roots/internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	second, err := analysis.LoadDir("testdata/src/roots/second", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := deadexport.New(append(second, first...))
	analysistest.Check(t, first, a)
}

// TestDeadexportNotTransitive is the delete-rerun-repeat contract on a
// two-package fixture: while the dead caller exists its callee is silent,
// and with the caller deleted the next run reports the callee.
func TestDeadexportNotTransitive(t *testing.T) {
	check(t, "./testdata/src/chain/before/...")
	check(t, "./testdata/src/chain/after/...")
}
