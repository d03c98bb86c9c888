// Package poolbalance defines the wbcheck pass for pooled resources: any
// pooled checkout — a direct sync.Pool.Get, or a call to a module-level
// Get*/get* function that has a matching Put*/put* sibling in its package
// (getEncodeBuf/putEncodeBuf) — must be returned on every path out of the
// acquiring function. Acceptable shapes, in order of preference: a deferred Put (directly or inside a deferred
// func literal), handing the resource off by returning it to the caller
// (the wrapper-constructor shape: `return pool.Get().(*T)`), or a plain Put
// on every return path. Everything else leaks warm scratch out of the pool
// and regrows it per request, which is precisely the allocation regression
// the PR-4 fast path exists to prevent.
package poolbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"webbrief/internal/analysis"
)

// Analyzer implements the poolbalance pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolbalance",
	Doc:  "sync.Pool.Get / Get-Put pair checkouts must be returned on every path (defer the Put, hand the resource off, or Put before each return)",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkScope(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkScope(pass, fn.Body)
			}
			return true
		})
	}
}

// checkout is one pooled acquisition in the scope under check.
type checkout struct {
	call   *ast.CallExpr
	pos    token.Pos
	desc   string       // printable source of the resource, e.g. "getEncodeBuf" or "bufPool.Get"
	putKey string       // key a put call must produce to balance this checkout
	varObj types.Object // variable the result was assigned to, if a simple assignment
}

type putCall struct {
	pos      token.Pos
	key      string
	deferred bool
}

// checkScope analyzes one function scope (never descending into nested
// FuncLits — each gets its own checkScope from run).
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	var (
		checkouts []checkout
		puts      []putCall
		returns   []*ast.ReturnStmt
	)
	// assignedTo lets the CallExpr visit below attach the destination
	// variable of `v := Get()` / `v := Get().(*T)` to the checkout.
	assignedTo := map[*ast.CallExpr]types.Object{}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			// Deferred puts balance everything; a deferred func literal is
			// scanned for puts only (it runs in this scope's epilogue).
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if key, isPut := putKeyOf(pass, call); isPut {
							puts = append(puts, putCall{call.Pos(), key, true})
						}
					}
					return true
				})
				return false
			}
			if key, isPut := putKeyOf(pass, x.Call); isPut {
				puts = append(puts, putCall{x.Call.Pos(), key, true})
				return false
			}
			return true
		case *ast.AssignStmt:
			if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
				if call, ok := unwrapToCall(x.Rhs[0]); ok {
					if id, ok := x.Lhs[0].(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							assignedTo[call] = obj
						} else if obj := pass.Info.Uses[id]; obj != nil {
							assignedTo[call] = obj
						}
					}
				}
			}
			return true
		case *ast.ReturnStmt:
			returns = append(returns, x)
			return true
		case *ast.CallExpr:
			if key, isPut := putKeyOf(pass, x); isPut {
				puts = append(puts, putCall{x.Pos(), key, false})
				return true
			}
			if desc, key, isGet := checkoutKeyOf(pass, x); isGet {
				checkouts = append(checkouts, checkout{
					call:   x,
					pos:    x.Pos(),
					desc:   desc,
					putKey: key,
					varObj: assignedTo[x],
				})
			}
			return true
		}
		return true
	}
	ast.Inspect(body, visit)

	if len(checkouts) == 0 {
		return
	}

	// Exits after a position: every later return, plus falling off the end
	// of the body unless its last statement is a return.
	fallOff := token.NoPos
	if n := len(body.List); n == 0 {
		fallOff = body.End()
	} else if _, isRet := body.List[n-1].(*ast.ReturnStmt); !isRet {
		fallOff = body.End()
	}

	for _, co := range checkouts {
		if handsOff(pass, returns, co) {
			continue
		}
		if hasDeferredPut(puts, co.putKey) {
			continue
		}
		if !hasAnyPut(puts, co.putKey) {
			pass.Reportf(co.pos, "%s checkout is never matched by a Put in this scope; defer the Put right after the checkout, or return the resource to the caller", co.desc)
			continue
		}
		for _, ret := range returns {
			if ret.Pos() > co.pos && !putBetween(puts, co.putKey, co.pos, ret.Pos()) {
				pass.Reportf(co.pos, "%s checkout is missing a Put on the return path at line %d; defer the Put instead",
					co.desc, pass.Fset.Position(ret.Pos()).Line)
			}
		}
		if fallOff.IsValid() && !putBetween(puts, co.putKey, co.pos, fallOff) {
			pass.Reportf(co.pos, "%s checkout is missing a Put on the fall-through path at the end of the function; defer the Put instead", co.desc)
		}
	}
}

// handsOff reports whether some return statement hands the checked-out
// resource to the caller: a result that is the checkout call itself (through
// parens and type assertions) or the variable it was assigned to.
func handsOff(pass *analysis.Pass, returns []*ast.ReturnStmt, co checkout) bool {
	for _, ret := range returns {
		for _, res := range ret.Results {
			if call, ok := unwrapToCall(res); ok && call == co.call {
				return true
			}
			if co.varObj != nil {
				if id, ok := unwrapToIdent(res); ok && pass.Info.Uses[id] == co.varObj {
					return true
				}
			}
		}
	}
	return false
}

func hasDeferredPut(puts []putCall, key string) bool {
	for _, p := range puts {
		if p.deferred && p.key == key {
			return true
		}
	}
	return false
}

func hasAnyPut(puts []putCall, key string) bool {
	for _, p := range puts {
		if p.key == key {
			return true
		}
	}
	return false
}

func putBetween(puts []putCall, key string, after, before token.Pos) bool {
	for _, p := range puts {
		if !p.deferred && p.key == key && after < p.pos && p.pos < before {
			return true
		}
	}
	return false
}

// checkoutKeyOf decides whether call acquires a pooled resource, returning
// a printable description and the key its balancing put must carry.
func checkoutKeyOf(pass *analysis.Pass, call *ast.CallExpr) (desc, key string, ok bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	// Direct sync.Pool.Get: keyed by the pool expression's terminal object,
	// so puts on a different pool in the same scope don't balance it.
	if fn.Name() == "Get" && fn.Pkg().Path() == "sync" && recvIsPool(fn) {
		if obj, name := poolReceiver(pass, call); obj != nil {
			return name + ".Get", poolKey(obj), true
		}
		return "", "", false
	}
	if put := pairPut(fn); put != nil {
		return fn.Name(), funcKey(put), true
	}
	return "", "", false
}

// putKeyOf mirrors checkoutKeyOf for the releasing side.
func putKeyOf(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if fn.Name() == "Put" && fn.Pkg().Path() == "sync" && recvIsPool(fn) {
		if obj, _ := poolReceiver(pass, call); obj != nil {
			return poolKey(obj), true
		}
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && inModule(fn.Pkg().Path()) {
		name := fn.Name()
		if strings.HasPrefix(name, "Put") || strings.HasPrefix(name, "put") {
			return funcKey(fn), true
		}
	}
	return "", false
}

// pairPut resolves the Put*/put* sibling of a module-level Get*/get*
// function, or nil when the call is not a pooled checkout by convention.
// The module restriction keeps os.Getenv and friends out.
func pairPut(fn *types.Func) *types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return nil
	}
	pkg := fn.Pkg()
	if pkg == nil || !inModule(pkg.Path()) {
		return nil
	}
	var putName string
	switch name := fn.Name(); {
	case strings.HasPrefix(name, "Get"):
		putName = "Put" + name[len("Get"):]
	case strings.HasPrefix(name, "get"):
		putName = "put" + name[len("get"):]
	default:
		return nil
	}
	put, _ := pkg.Scope().Lookup(putName).(*types.Func)
	return put
}

func inModule(path string) bool {
	return path == "webbrief" || strings.HasPrefix(path, "webbrief/")
}

func funcKey(fn *types.Func) string {
	return "func " + fn.Pkg().Path() + "." + fn.Name()
}

func poolKey(obj types.Object) string {
	key := "pool " + obj.Name()
	if obj.Pkg() != nil {
		key = "pool " + obj.Pkg().Path() + "." + obj.Name()
	}
	return key
}

// poolReceiver resolves the pool expression of pool.Get()/pool.Put(x) to
// its terminal object and printable name.
func poolReceiver(pass *analysis.Pass, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return pass.Info.Uses[x], x.Name
	case *ast.SelectorExpr:
		return pass.Info.Uses[x.Sel], types.ExprString(x)
	}
	return nil, ""
}

func recvIsPool(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return analysis.IsNamed(sig.Recv().Type(), "sync", "Pool")
}

// unwrapToCall strips parens and type assertions: `(pool.Get()).(*T)` is
// still the Get call.
func unwrapToCall(expr ast.Expr) (*ast.CallExpr, bool) {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.TypeAssertExpr:
			expr = x.X
		case *ast.CallExpr:
			return x, true
		default:
			return nil, false
		}
	}
}

func unwrapToIdent(expr ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.TypeAssertExpr:
			expr = x.X
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}
