// Package blockfacts computes the call-graph summary lockhold consumes. It
// reports nothing itself: for every function declared in the package it
// decides, bottom-up, whether the function can block (channel operations,
// select without default, network/process waits, sync.WaitGroup/Cond Wait —
// transitively through calls), then exports the answer as an analysis fact.
// Because the driver analyzes packages in dependency order, a summary
// exported by internal/tensor is visible when internal/ag is analyzed, and so
// on up the import graph: that is how "MakeBrief can block on a WaitGroup
// three packages down" becomes a checkable statement in lockhold.
//
// The summaries are deliberately conservative in both directions: indirect
// calls through function values and interface methods are assumed
// non-blocking (so lockhold stays quiet rather than noisy), and only a
// fixed table of stdlib primitives seeds the blocking relation.
package blockfacts

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"webbrief/internal/analysis"
)

// Blocks is the fact exported for a function whose body can block on
// channels, network, process waits, or sync Wait primitives. Reason is a
// human-readable chain such as "calls parallelRows (sync.WaitGroup.Wait)".
type Blocks struct{ Reason string }

// AFact marks Blocks as an analysis fact.
func (*Blocks) AFact() {}

// Analyzer computes and exports the summaries. It reports no diagnostics;
// passes list it in Requires to read its facts.
var Analyzer = &analysis.Analyzer{
	Name: "blockfacts",
	Doc:  "bottom-up blocking call-graph summaries exported as facts (reports nothing itself)",
	Run:  run,
}

func run(pass *analysis.Pass) {
	// Collect every declared function body, in file order so the fixed
	// point below is deterministic.
	type decl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []decl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			decls = append(decls, decl{fn, fd.Body})
		}
	}

	// Fixed point over intra-package calls: a function is blocking if its
	// body says so directly, via an imported fact, or via the current
	// summary of a same-package callee. The summary is a reason, "" for
	// "cannot block"; blocking only ever flips off->on, so this terminates.
	local := map[*types.Func]string{}
	look := func(fn *types.Func) string {
		if s, ok := local[fn]; ok {
			return s
		}
		return factReason(pass, fn)
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			s := scanBody(pass, d.body, look)
			if cur := local[d.fn]; cur != s {
				local[d.fn] = s
				changed = true
			}
		}
	}

	for _, d := range decls {
		if reason := local[d.fn]; reason != "" {
			pass.ExportObjectFact(d.fn, &Blocks{Reason: reason})
		}
	}
}

// factReason reads a previously exported Blocks fact for fn — either from a
// dependency package or from an earlier iteration over this one — and
// returns its reason, "" when there is none.
func factReason(pass *analysis.Pass, fn *types.Func) string {
	var b Blocks
	pass.ImportObjectFact(fn, &b)
	return b.Reason
}

// CallBlocks reports whether call can block, with a reason: either the
// callee is a known-blocking stdlib primitive or it carries a Blocks fact.
// Indirect calls resolve to no *types.Func and return false.
func CallBlocks(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	return callBlocks(pass, call, func(fn *types.Func) string {
		return factReason(pass, fn)
	})
}

// stdBlockers seeds the blocking relation: {package, receiver (or "" for
// package-level), name} -> reason. Interface methods key on the interface's
// name. sync.Mutex.Lock is deliberately absent — lockhold's contract is
// about channels, network and Wait, not about nested mutexes.
var stdBlockers = map[[3]string]string{
	{"sync", "WaitGroup", "Wait"}:               "sync.WaitGroup.Wait",
	{"sync", "Cond", "Wait"}:                    "sync.Cond.Wait",
	{"time", "", "Sleep"}:                       "time.Sleep",
	{"io", "", "ReadAll"}:                       "io.ReadAll",
	{"io", "", "Copy"}:                          "io.Copy",
	{"io", "", "CopyN"}:                         "io.CopyN",
	{"io", "", "ReadFull"}:                      "io.ReadFull",
	{"net", "", "Dial"}:                         "net.Dial",
	{"net", "", "DialTimeout"}:                  "net.DialTimeout",
	{"net", "", "Listen"}:                       "net.Listen",
	{"net", "Conn", "Read"}:                     "net.Conn.Read",
	{"net", "Conn", "Write"}:                    "net.Conn.Write",
	{"net/http", "", "Get"}:                     "http.Get",
	{"net/http", "", "Head"}:                    "http.Head",
	{"net/http", "", "Post"}:                    "http.Post",
	{"net/http", "", "PostForm"}:                "http.PostForm",
	{"net/http", "Client", "Do"}:                "http.Client.Do",
	{"net/http", "Client", "Get"}:               "http.Client.Get",
	{"net/http", "Client", "Head"}:              "http.Client.Head",
	{"net/http", "Client", "Post"}:              "http.Client.Post",
	{"net/http", "Client", "PostForm"}:          "http.Client.PostForm",
	{"net/http", "Server", "ListenAndServe"}:    "http.Server.ListenAndServe",
	{"net/http", "Server", "ListenAndServeTLS"}: "http.Server.ListenAndServeTLS",
	{"net/http", "Server", "Serve"}:             "http.Server.Serve",
	{"net/http", "Server", "Shutdown"}:          "http.Server.Shutdown",
	{"os/exec", "Cmd", "Run"}:                   "exec.Cmd.Run",
	{"os/exec", "Cmd", "Wait"}:                  "exec.Cmd.Wait",
	{"os/exec", "Cmd", "Output"}:                "exec.Cmd.Output",
	{"os/exec", "Cmd", "CombinedOutput"}:        "exec.Cmd.CombinedOutput",
}

func callBlocks(pass *analysis.Pass, call *ast.CallExpr, look func(*types.Func) string) (string, bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	key := [3]string{fn.Pkg().Path(), recvTypeName(fn), fn.Name()}
	if reason, ok := stdBlockers[key]; ok {
		return reason, true
	}
	if reason := look(fn); reason != "" {
		return "calls " + fn.Name() + " (" + rootCause(reason) + ")", true
	}
	return "", false
}

// rootCause unwraps nested "calls f (...)" chains to the primitive reason,
// so a summary that crossed four packages reads "calls MakeBrief
// (sync.WaitGroup.Wait)" instead of reciting the whole call path.
func rootCause(reason string) string {
	for strings.HasPrefix(reason, "calls ") {
		i := strings.IndexByte(reason, '(')
		if i < 0 || !strings.HasSuffix(reason, ")") {
			break
		}
		reason = reason[i+1 : len(reason)-1]
	}
	return reason
}

// recvTypeName is the named receiver type of a method ("" for package-level
// functions), pointers stripped, interfaces included.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed && named.Obj() != nil {
		return named.Obj().Name()
	}
	return ""
}

// scanBody walks one function body (never descending into FuncLits or go
// statements — their bodies run on other goroutines) and returns the first
// reason it can block, "" if none.
func scanBody(pass *analysis.Pass, body *ast.BlockStmt, look func(*types.Func) string) string {
	var reason string
	note := func(v string) {
		if reason == "" {
			reason = v
		}
	}
	var inspect func(n ast.Node) bool
	rec := func(n ast.Node) { ast.Inspect(n, inspect) }
	inspect = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			// The select blocks unless it has a default; with a default
			// present its channel ops cannot, so only the bodies are walked.
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				note("select")
			}
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						rec(st)
					}
				}
			}
			return false
		case *ast.SendStmt:
			note("channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				note("channel receive")
			}
		case *ast.RangeStmt:
			if isChanExpr(pass, x.X) {
				note("range over channel")
			}
		case *ast.CallExpr:
			if r, ok := callBlocks(pass, x, look); ok {
				note(r)
			}
		}
		return true
	}
	ast.Inspect(body, inspect)
	return reason
}

// isChanExpr reports whether expr has channel type.
func isChanExpr(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
