// Package deadexport reports declarations under internal/ that no shipped
// code refers to. Everything in this module lives under internal/, so an
// exported func, method, type, var or const that no non-test file of any
// loaded package mentions outside its own declaration is reachable from no
// binary: it is dead, and only its tests keep it compiling. Unexported
// package-level funcs with no non-test caller are reported too, since
// nothing else reports them.
//
// The users may sit in another module (bench/ imports webbrief/internal/…
// through a replace directive), so New takes every package of every root up
// front and scans their types.Info.Uses once; the Analyzer it returns is an
// ordinary per-package pass over that scan, so //wbcheck:ignore directives,
// sorting and -json behave as for any other pass. The check is not
// transitive: a dead function keeps its callees alive until it is deleted,
// so delete, rerun, and repeat to the fixed point.
//
// A method is also live when its receiver type is live and an interface —
// one declared in a loaded package, or one of the standard-library
// interfaces in stdInterfaceMethods — declares a method of its name:
// satisfying an interface is a use the identifier scan cannot see.
package deadexport

import (
	"go/ast"
	"go/types"
	"strings"

	"webbrief/internal/analysis"
)

// stdInterfaceMethods are the methods of the standard-library interfaces
// this tree implements without naming them: error (and errors.Is/Unwrap),
// fmt.Stringer, http.Handler and http.ResponseWriter, io.Reader and
// io.Closer, context.Context, json.Marshaler/Unmarshaler, io.WriterTo and
// sort.Interface.
var stdInterfaceMethods = []string{
	"Error", "Unwrap", "Is",
	"String",
	"ServeHTTP", "Header", "Write", "WriteHeader",
	"Read", "Close",
	"Deadline", "Done", "Err", "Value",
	"MarshalJSON", "UnmarshalJSON",
	"WriteTo",
	"Len", "Less", "Swap",
}

// New scans pkgs — every package of every module root, subjects and users
// alike — and returns the pass plus the number of exported declarations in
// the subject packages among them.
func New(pkgs []*analysis.Package) (a *analysis.Analyzer, exported int) {
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	for _, name := range stdInterfaceMethods {
		ifaceMethods[name] = true
	}
	subjects := map[string][]decl{} // by import path
	for _, pkg := range pkgs {
		policed := isSubject(pkg.ImportPath)
		eachDecl(pkg.Files, func(names []*ast.Ident, kind string, node ast.Node) {
			self := map[string]bool{}
			for _, name := range names {
				d := decl{name: name, kind: kind}
				d.key, d.recvKey = keyOf(pkg.Info.Defs[name])
				self[d.key], self[d.recvKey] = true, true
				if d.recvKey != "" {
					d.kind = "method"
				}
				// Policed: everything exported, and unexported
				// package-level funcs other than init.
				if !policed || d.key == "" || !(name.IsExported() || d.kind == "func" && name.Name != "init") {
					continue
				}
				subjects[pkg.ImportPath] = append(subjects[pkg.ImportPath], d)
				if name.IsExported() {
					exported++
				}
			}
			scanUses(pkg.Info, node, self, used, ifaceMethods)
		})
	}
	return &analysis.Analyzer{
		Name: "deadexport",
		Doc:  "declarations under internal/ that no non-test file of either module root refers to",
		Run: func(pass *analysis.Pass) {
			for _, d := range subjects[pass.Pkg.Path()] {
				if used[d.key] || (d.recvKey != "" && used[d.recvKey] && ifaceMethods[d.name.Name]) {
					continue
				}
				pass.Reportf(d.name.Pos(), "%s %s has no non-test use outside its own declaration: delete it (or //wbcheck:ignore deadexport -- the oracle or paper component it is)", d.kind, d.name.Name)
			}
		},
	}, exported
}

// isSubject reports whether the package at path is policed: it sits under an
// internal element, no testdata element follows that one (lint fixtures of
// the other passes hold deliberately unused code), and it is not a
// test-support package — one named …test, as net/http/httptest is, whose
// only callers are tests by design (analysistest).
func isSubject(path string) bool {
	i := strings.LastIndex("/"+path+"/", "/internal/")
	return i >= 0 && !strings.Contains(path[i:]+"/", "/testdata/") && !strings.HasSuffix(path, "test")
}

// decl is one policed declaration.
type decl struct {
	name    *ast.Ident
	kind    string
	key     string
	recvKey string // methods: the receiver type's key
}

// eachDecl calls fn once per package-level declaration — a func or method,
// a type spec, or a var/const spec with the names it declares together —
// with the node that holds everything the declaration mentions.
func eachDecl(files []*ast.File, fn func(names []*ast.Ident, kind string, node ast.Node)) {
	for _, f := range files {
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				fn([]*ast.Ident{gd.Name}, "func", gd)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						fn([]*ast.Ident{spec.Name}, "type", spec)
					case *ast.ValueSpec:
						fn(spec.Names, strings.ToLower(gd.Tok.String()), spec)
					}
				}
			}
		}
	}
}

// scanUses marks every package-level object and method that node refers to,
// and collects the method names of every interface type it spells out. A
// reference to one of self — the declaration's own names (recursion, a
// self-typed field) or the receiver type of the method it declares — is not
// a use.
func scanUses(info *types.Info, node ast.Node, self, used, ifaceMethods map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if key, _ := keyOf(info.Uses[n]); key != "" && !self[key] {
				used[key] = true
			}
		case *ast.InterfaceType:
			if it, ok := info.TypeOf(n).(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
		return true
	})
}

// keyOf names a package-level object or a method by package path and
// analysis.ObjectPath — the same string whether obj was type-checked from
// source, imported from export data, or loaded under another module root —
// and, for a method, names its receiver type the same way. key is "" for
// everything else (locals, fields, builtins), and an instantiated generic
// func or method answers as its declaration.
func keyOf(obj types.Object) (key, recvKey string) {
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	path, ok := analysis.ObjectPath(obj)
	if !ok {
		return "", ""
	}
	pkg := obj.Pkg().Path() + "."
	if recv, _, isMethod := strings.Cut(path, "."); isMethod {
		return pkg + path, pkg + recv
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return "", ""
	}
	return pkg + path, ""
}
