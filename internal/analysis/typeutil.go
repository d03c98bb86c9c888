package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CalleeFunc resolves the *types.Func a call expression invokes, or nil for
// indirect calls, conversions and builtins. It sees through parentheses,
// explicit instantiations (f[T](…)) and both ident and selector callees,
// and returns the generic declaration for calls of an instantiated function
// or a method of an instantiated type — the object facts are attached to.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = p.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// IsNamed reports whether t (after stripping pointers and aliases) is the
// named type pkgPath.name, or an instantiation of it when it is generic.
func IsNamed(t types.Type, pkgPath, name string) bool {
	for {
		ptr, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// LastPathSegment returns the final element of an import path ("ag" for
// "webbrief/internal/ag").
func LastPathSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
