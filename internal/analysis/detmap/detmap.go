// Package detmap flags `range` statements over maps that hold model state —
// *ag.Param keys or values, or *tensor.Matrix shards keyed by parameters
// (any instantiation of the generic ag.ParamOf / tensor.MatrixOf).
// Go randomises map iteration order, so any such loop whose body has
// side effects makes training output depend on scheduling, which breaks the
// engine's bit-for-bit reproducibility guarantee. State iterated for
// gradient merging, serialization or optimisation must follow an explicit
// slice order (see GradSink.MergeInto). Test files are exempt.
package detmap

import (
	"go/ast"
	"go/types"

	"webbrief/internal/analysis"
)

// Analyzer is the detmap pass.
var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Doc:  "range over maps of *ag.Param / model state is nondeterministic",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			m, ok := tv.Type.Underlying().(*types.Map)
			if !ok {
				return true
			}
			if isModelState(m.Key()) || isModelState(m.Elem()) {
				pass.Reportf(rs.Pos(),
					"range over map[%s]%s iterates model state in random order; iterate an explicit slice instead",
					m.Key(), m.Elem())
			}
			return true
		})
	}
}

// isModelState reports whether t is (a pointer/slice chain ending in) one of
// the engine's trainable-state types.
func isModelState(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		}
		break
	}
	return analysis.IsNamed(t, "webbrief/internal/ag", "ParamOf") ||
		analysis.IsNamed(t, "webbrief/internal/tensor", "MatrixOf")
}
