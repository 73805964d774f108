package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolCheck enforces the ownership rules of the pooled-buffer layers
// (internal/rpc's getBuf/putBuf and internal/kernels' GetScratch/
// PutScratch) that the zero-allocation hot path depends on:
//
//   - a buffer obtained from the pool must reach a put or an
//     ownership-transferring operation (return, channel send, alias or
//     field store, go/defer handoff, or a call whose summary says it puts
//     the buffer) on every non-panic path — a silent drop re-allocates on
//     the paper's µs-scale serving path and skews the overhead
//     measurements calibrated against it;
//   - no use after put: once a buffer is back in the pool another
//     goroutine may own it;
//   - no double put: putting twice hands the same buffer to two owners.
//
// The check is flow-sensitive (it walks the function's CFG, cfg.go) and
// deliberately local: it tracks only variables directly assigned from a
// pool get in the same function or literal body. "Pool get" is resolved
// interprocedurally: besides the literal entry points, a call to a
// single-result helper whose summary says it returns a pooled buffer on
// every path (FuncSummary.ReturnsPooled — getBufN in internal/rpc is
// the canonical case) starts a tracked epoch too. Buffers that pass
// through append-style helpers (`data, err = f(getBuf(n), ...)`) or are
// captured by closures transfer ownership to code this analyzer does not
// second-guess — those idioms are the hot path's own (see
// internal/rpc/pipeline.go) and remain the API comments' responsibility.
// Gets that return (buffer, error) — the frame encoder's shape — are
// tracked from the call: the path that finds the error non-nil owns
// nothing, the path that finds it nil owns the buffer.
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "flags pool buffers that leak, are used after put, or are put twice",
	Run:  runPoolCheck,
}

// poolGetFuncs / poolPutFuncs name the pool entry points, matched by
// function name plus declaring-package path suffix (suffix matching keeps
// fixtures and the real module on the same rule).
var (
	poolGetFuncs = map[string]string{"getBuf": "internal/rpc", "GetScratch": "internal/kernels"}
	poolPutFuncs = map[string]string{"putBuf": "internal/rpc", "PutScratch": "internal/kernels"}
	// poolGetErrFuncs return (buffer, error): the buffer is pool-owned
	// exactly when the error is nil.
	poolGetErrFuncs = map[string]string{"encodeFrame": "internal/rpc"}
)

func isPoolCall(info *types.Info, call *ast.CallExpr, table map[string]string) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	suffix, ok := table[fn.Name()]
	return ok && pkgPathHasSuffix(fn.Pkg().Path(), suffix)
}

// isPoolGetCall reports whether call obtains a buffer from a pool.
func isPoolGetCall(info *types.Info, call *ast.CallExpr) bool {
	return isPoolCall(info, call, poolGetFuncs)
}

// isPoolPutCall reports whether call returns a buffer to a pool.
func isPoolPutCall(info *types.Info, call *ast.CallExpr) bool {
	return isPoolCall(info, call, poolPutFuncs)
}

func runPoolCheck(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkPoolBody(pass, fn.Body)
			}
		}
		// Each function literal is its own body: gets inside it are
		// tracked against its control flow, not the enclosing function's.
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkPoolBody(pass, lit.Body)
			}
			return true
		})
	}
}

// poolState is the tracked buffer's condition along one path.
type poolState uint8

const (
	psLive      poolState = iota // owned, not yet released
	psPending                    // a defer put is registered; release happens at exit
	psReleased                   // put back in the pool
	psUnchecked                  // owned unless the paired error, not yet tested, is non-nil
)

// owned reports whether the path still holds the buffer unreleased.
func (st poolState) owned() bool { return st == psLive || st == psUnchecked }

// poolEvent classifies what one statement does to the tracked variable.
type poolEvent uint8

const (
	evNone      poolEvent = iota
	evRead                // uses the buffer's contents
	evPut                 // immediate put
	evDeferPut            // registers a deferred put
	evReget               // reassigned from a fresh pool get
	evOverwrite           // reassigned from anything else (old buffer dropped)
	evTransfer            // ownership leaves this variable (return/send/alias/…)
)

// getSite is one tracked `v := getBuf(n)` statement. errObj is the error
// paired with v by a `v, err := encodeFrame(...)` get, nil otherwise.
type getSite struct {
	obj    types.Object
	errObj types.Object
	stmt   ast.Stmt
	call   *ast.CallExpr
	block  *Block
	index  int
}

func checkPoolBody(pass *Pass, body *ast.BlockStmt) {
	// Variables touched by nested closures escape this body's control
	// flow; tracking them would second-guess the closure.
	closureTouched := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					closureTouched[obj] = true
				}
			}
			return true
		})
		return false
	})

	cfg := NewCFG(pass.Fset, body, pass.Info)
	var sites []getSite
	for _, b := range cfg.Blocks {
		for i, s := range b.Stmts {
			obj, errObj, call := trackedGet(pass, s)
			if obj == nil || closureTouched[obj] {
				continue
			}
			sites = append(sites, getSite{obj: obj, errObj: errObj, stmt: s, call: call, block: b, index: i})
		}
	}
	for _, site := range sites {
		checkGetSite(pass, cfg, site)
	}
}

// trackedGet recognizes `v := getBuf(n)` / `v = GetScratch(n)[:n]` /
// `v := getBufN(n)` forms — direct pool gets or summary-resolved get
// helpers — and the `v, err := p.encodeFrame(...)` form, where v is a
// plain local identifier, returning the variable, the paired error
// variable (nil for the single-result forms or a blank error) and the get
// call.
func trackedGet(pass *Pass, s ast.Stmt) (types.Object, types.Object, *ast.CallExpr) {
	assign, ok := s.(*ast.AssignStmt)
	if !ok {
		return nil, nil, nil
	}
	if len(assign.Lhs) == 2 && len(assign.Rhs) == 1 {
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if ok && isPoolCall(pass.Info, call, poolGetErrFuncs) {
			if obj := localObj(pass.Info, assign.Lhs[0]); obj != nil {
				return obj, localObj(pass.Info, assign.Lhs[1]), call
			}
		}
		return nil, nil, nil
	}
	if len(assign.Lhs) != len(assign.Rhs) {
		return nil, nil, nil
	}
	for i, rhs := range assign.Rhs {
		call := getCallOf(pass, rhs)
		if call == nil {
			continue
		}
		if obj := localObj(pass.Info, assign.Lhs[i]); obj != nil {
			return obj, nil, call
		}
	}
	return nil, nil, nil
}

// localObj resolves an assignment target that is a plain, non-blank
// identifier.
func localObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// errNilTest reports whether s is an if condition `err != nil` or
// `err == nil` on errObj, and whether the then-branch is the one where
// err is non-nil.
func errNilTest(info *types.Info, errObj types.Object, s ast.Stmt) (nonNilThen, ok bool) {
	es, isExpr := s.(*ast.ExprStmt)
	if !isExpr {
		return false, false
	}
	bin, isBin := ast.Unparen(es.X).(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return false, false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
	}
	if !(isErr(bin.X) && isNil(bin.Y)) && !(isNil(bin.X) && isErr(bin.Y)) {
		return false, false
	}
	return bin.Op == token.NEQ, true
}

// assignsTo reports whether s assigns to obj.
func assignsTo(info *types.Info, obj types.Object, s ast.Stmt) bool {
	assign, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range assign.Lhs {
		if localObj(info, lhs) == obj {
			return true
		}
	}
	return false
}

// getCallOf unwraps a pool-get expression: a direct pool-get call, a
// call to a summary-resolved get helper, or a slicing of either.
func getCallOf(pass *Pass, e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || (!isPoolGetCall(pass.Info, call) && !isSummaryGetCall(pass, call)) {
		return nil
	}
	return call
}

// isSummaryGetCall reports whether call invokes a module function whose
// summary marks its single result as pooled on every path (the getBufN
// shape): the call site owns the result exactly as if it had called the
// pool directly. Multi-result helpers (`buf, err := readFrame(...)`)
// never qualify — their error-path results keep ReturnsPooled off.
func isSummaryGetCall(pass *Pass, call *ast.CallExpr) bool {
	callee := staticCallee(pass.Info, call)
	if callee == nil {
		return false
	}
	cs := pass.Mod.SummaryOf(callee)
	return cs != nil && funcSig(callee).Results().Len() == 1 &&
		len(cs.ReturnsPooled) == 1 && cs.ReturnsPooled[0]
}

// checkGetSite runs the ownership state machine forward from one get.
func checkGetSite(pass *Pass, cfg *CFG, site getSite) {
	var (
		leaked   bool
		reported = map[token.Pos]bool{} // dedupe use/double-put across paths
	)
	report := func(n ast.Node, format string, args ...interface{}) {
		if !reported[n.Pos()] {
			reported[n.Pos()] = true
			pass.Reportf(n, SeverityError, format, args...)
		}
	}
	visited := map[*Block]uint8{}
	var walk func(b *Block, from int, st poolState)
	walk = func(b *Block, from int, st poolState) {
		for i, s := range b.Stmts[from:] {
			if st == psUnchecked {
				// The if condition ends its block; Succs[0] is the
				// then-branch. The branch that sees a non-nil error owns
				// nothing, so its path ends here.
				if nonNilThen, ok := errNilTest(pass.Info, site.errObj, s); ok &&
					from+i == len(b.Stmts)-1 && len(b.Succs) == 2 {
					owning := b.Succs[1]
					if !nonNilThen {
						owning = b.Succs[0]
					}
					if visited[owning]&(1<<psLive) == 0 {
						visited[owning] |= 1 << psLive
						walk(owning, 0, psLive)
					}
					return
				}
				if assignsTo(pass.Info, site.errObj, s) {
					st = psLive // the error no longer speaks for the buffer
				}
			}
			switch classifyPoolStmt(pass, site.obj, s) {
			case evRead:
				if st == psReleased {
					report(s, "%s is used after being returned to the pool; the pool may already have reissued it", site.obj.Name())
				}
			case evPut:
				if !st.owned() {
					report(s, "%s is returned to the pool twice on some path; two future gets would share one buffer", site.obj.Name())
				}
				st = psReleased
			case evDeferPut:
				if !st.owned() {
					report(s, "%s is returned to the pool twice on some path; two future gets would share one buffer", site.obj.Name())
				}
				st = psPending
			case evReget:
				// A fresh get starts its own tracked epoch; the old buffer
				// leaks unless released or covered by a pending defer put
				// (whose argument was evaluated at registration).
				if st.owned() {
					leaked = true
				}
				return
			case evOverwrite:
				if st.owned() {
					leaked = true
				}
				return
			case evTransfer:
				if st == psReleased {
					report(s, "%s is handed off after being returned to the pool; the new owner would share it with a future get", site.obj.Name())
				}
				return // ownership left this variable; path is done
			}
		}
		if b == cfg.Exit {
			if st.owned() {
				leaked = true
			}
			return
		}
		for _, succ := range b.Succs {
			bit := uint8(1) << st
			if visited[succ]&bit == 0 {
				visited[succ] |= bit
				walk(succ, 0, st)
			}
		}
	}
	start := psLive
	if site.errObj != nil {
		start = psUnchecked
	}
	walk(site.block, site.index+1, start)
	if leaked {
		pass.Reportf(site.call, SeverityError,
			"pooled buffer %s does not reach a put or an ownership transfer on every non-panic path; the pool loses it and the hot path re-allocates", site.obj.Name())
	}
}

// classifyPoolStmt decides what statement s does to the tracked variable.
func classifyPoolStmt(pass *Pass, obj types.Object, s ast.Stmt) poolEvent {
	info := pass.Info
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
	}
	mentions := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	putOf := func(call *ast.CallExpr) bool {
		return isPoolPutCall(info, call) && len(call.Args) == 1 && isObj(call.Args[0])
	}

	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && putOf(call) {
			return evPut
		}
	case *ast.DeferStmt:
		if putOf(s.Call) {
			return evDeferPut
		}
		if mentions(s) {
			return evTransfer // deferred handoff runs after this analysis can see
		}
		return evNone
	case *ast.GoStmt:
		if mentions(s) {
			return evTransfer // concurrent owner
		}
		return evNone
	case *ast.ReturnStmt:
		// Returning the buffer (or a reslice of it) hands it to the
		// caller; returning a value computed FROM it is just a read.
		for _, res := range s.Results {
			if aliasOf(isObj, res) {
				return evTransfer
			}
		}
	case *ast.SendStmt:
		if aliasOf(isObj, s.Value) {
			return evTransfer
		}
	case *ast.AssignStmt:
		// Assignment TO the variable: classify by what replaces it.
		for i, lhs := range s.Lhs {
			if !isObj(lhs) {
				continue
			}
			var rhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0]
			}
			if rhs != nil && getCallOf(pass, rhs) != nil {
				return evReget
			}
			for _, r := range s.Rhs {
				if mentions(r) {
					return evRead // self-append style: `v = append(v, …)` retains ownership
				}
			}
			return evOverwrite
		}
		// Assignment FROM the variable: a whole-value alias (plain ident
		// or a slicing of it) moves ownership; element/derived reads do
		// not.
		for _, r := range s.Rhs {
			if aliasOf(isObj, r) {
				return evTransfer
			}
		}
	}
	// Everything else: a store into a composite, a call argument, an
	// expression read. Composite literals and ownership-taking callees
	// transfer; plain reads do not.
	result := evNone
	ast.Inspect(s, func(n ast.Node) bool {
		if result == evTransfer {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isObj(v) {
					result = evTransfer
					return false
				}
			}
		case *ast.CallExpr:
			for j, arg := range n.Args {
				if !isObj(arg) {
					continue
				}
				switch callee := calleeOf(info, n).(type) {
				case *types.Builtin:
					result = evRead
				case *types.Func:
					if sum := pass.Mod.SummaryOf(callee); sum != nil &&
						j < len(sum.TakesOwnership) && sum.TakesOwnership[j] {
						result = evTransfer
						return false
					}
					result = evRead
				default:
					// Function value or unresolvable callee: assume it
					// takes the buffer rather than cry leak later.
					result = evTransfer
					return false
				}
			}
		case *ast.Ident:
			if result == evNone && info.Uses[n] == obj {
				result = evRead
			}
		}
		return true
	})
	return result
}

// aliasOf reports whether e is the tracked buffer itself or a reslicing
// of it — the shapes that carry ownership when assigned, returned, or
// sent.
func aliasOf(isObj func(ast.Expr) bool, e ast.Expr) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	return isObj(e)
}

// calleeOf resolves a call's target object (function, builtin, or nil).
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}
