// Package shapedoc enforces the kernel preamble convention of
// internal/tensor: every exported kernel that accepts a matrix argument
// validates shapes up front and panics with a message naming the operation
// (see dstShapeCheck in tensor/into.go). A kernel that skips the preamble
// fails later with an index-out-of-range somewhere inside a loop — or,
// worse, silently reads stale arena memory when a destination is the wrong
// shape, which the wbdebug NaN guards can only catch after the damage is
// done.
//
// The pass applies to packages named "tensor". An exported function or
// method there with at least one *MatrixOf[…] parameter (under any alias,
// e.g. *Matrix) must either call a
// shape-check helper (a function whose name contains "ShapeCheck" /
// "shapeCheck") or contain an explicit panic. Predicates and validators —
// functions returning bool or error — are exempt: reporting IS their job.
package shapedoc

import (
	"go/ast"
	"go/types"

	"webbrief/internal/analysis"
)

// Analyzer is the shapedoc pass.
var Analyzer = &analysis.Analyzer{
	Name: "shapedoc",
	Doc:  "exported tensor kernels must shape-check their matrix arguments and panic early",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if analysis.LastPathSegment(pass.Pkg.Path()) != "tensor" {
		return
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if !hasMatrixParam(pass, fn) || isPredicate(fn) {
				continue
			}
			if !checksShapes(fn.Body) {
				pass.Reportf(fn.Pos(),
					"exported kernel %s takes *Matrix but has no shape-check-then-panic preamble (see tensor/into.go)",
					fn.Name.Name)
			}
		}
	}
}

// hasMatrixParam reports whether any parameter (not the receiver) is a
// pointer to an instantiation of the generic type MatrixOf.
func hasMatrixParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if ell, ok := types.Unalias(t).(*types.Slice); ok { // variadic ...*Matrix
			t = ell.Elem()
		}
		ptr, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			continue
		}
		if named, ok := types.Unalias(ptr.Elem()).(*types.Named); ok && named.Obj().Name() == "MatrixOf" {
			return true
		}
	}
	return false
}

// isPredicate reports whether fn only reports (returns bool or error)
// rather than computing into its arguments.
func isPredicate(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil {
		return false
	}
	for _, field := range res.List {
		if id, ok := field.Type.(*ast.Ident); ok && (id.Name == "bool" || id.Name == "error") {
			return true
		}
	}
	return false
}

// checksShapes reports whether the body reaches a panic or a shape-check
// helper call on some path.
func checksShapes(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "panic" || isShapeCheckName(fun.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if isShapeCheckName(fun.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isShapeCheckName(name string) bool {
	for i := 0; i+len("hapeCheck") <= len(name); i++ {
		if name[i:i+len("hapeCheck")] == "hapeCheck" {
			return true
		}
	}
	return false
}
