package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/lpd-epfl/mvtl/internal/lint/analysis"
)

// FrameBufAnalyzer enforces the pooled-buffer ownership rules of
// PROTOCOL.md "Buffer ownership": a *wire.FrameBuf obtained from
// wire.GetFrameBuf must reach exactly one ownership sink — Release, a
// consuming send (transport.Conn.Send/SendBatch and the lowercase
// send/sendBatch enqueue helpers), or a transfer point (returned,
// stored, sent on a channel, or passed to a function that takes
// ownership per its documentation) — on EVERY control-flow path, and
// must never be touched after a consuming call. Buffers received from
// ownership-returning calls (rpc.Client.Call, transport.Conn.Recv) get
// the weaker whole-function check: some release/transfer must exist.
var FrameBufAnalyzer = &analysis.Analyzer{
	Name: "framebuf",
	Doc: "check that every wire.GetFrameBuf reaches exactly one Release/Send/transfer " +
		"on every path and is never used after being consumed",
	Run: runFrameBuf,
}

type fbState int

const (
	fbOwned    fbState = iota // definitely held, must still be consumed
	fbMaybe                   // consumed on some paths only
	fbConsumed                // definitely released/sent
	fbDone                    // transferred out of this function's view
)

type fbVar struct {
	state      fbState
	deferred   bool // a defer releases it: exempt from leak + use-after checks
	consumeVia string
}

type fbEnv map[*types.Var]*fbVar

func (e fbEnv) clone() fbEnv {
	c := make(fbEnv, len(e))
	for k, v := range e {
		cp := *v
		c[k] = &cp
	}
	return c
}

// fbEffect classifies one statement's impact on one tracked variable.
type fbEffect struct {
	use      bool // referenced at all
	consume  bool // Release or consuming send
	transfer bool // ownership left the function's view
	deferred bool // a defer will consume it
	pos      token.Pos
	via      string
}

type fbWalker struct {
	pass *analysis.Pass
}

func runFrameBuf(pass *analysis.Pass) error {
	w := &fbWalker{pass: pass}
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			env := fbEnv{}
			term := w.walkStmts(body.List, env)
			if !term {
				w.pathEnd(env, body.Rbrace)
			}
			w.checkWeak(body)
		})
	}
	return nil
}

// pathEnd reports buffers still owned when a path leaves the function.
func (w *fbWalker) pathEnd(env fbEnv, pos token.Pos) {
	for obj, v := range env {
		if v.deferred {
			continue
		}
		switch v.state {
		case fbOwned:
			w.pass.Reportf(pos, "pooled frame buffer %s leaks: this path ends without Release, a consuming send, or a transfer", obj.Name())
		case fbMaybe:
			w.pass.Reportf(pos, "pooled frame buffer %s may leak: consumed on some paths but not on the path ending here", obj.Name())
		}
		// Report once per buffer, not once per later return.
		v.state = fbDone
	}
}

// walkStmts threads env through stmts, reporting as it goes. The return
// value is true when control cannot fall off the end of the list.
func (w *fbWalker) walkStmts(stmts []ast.Stmt, env fbEnv) bool {
	for _, s := range stmts {
		if w.walkStmt(s, env) {
			return true
		}
	}
	return false
}

// walkBlock runs a nested statement list in a child scope: variables
// first tracked inside it are leak-checked when the block exits and do
// not escape into the parent env.
func (w *fbWalker) walkBlock(stmts []ast.Stmt, parent fbEnv, end token.Pos) (fbEnv, bool) {
	child := parent.clone()
	term := w.walkStmts(stmts, child)
	for obj, v := range child {
		if _, outer := parent[obj]; outer {
			continue
		}
		if !term && !v.deferred && (v.state == fbOwned || v.state == fbMaybe) {
			if v.state == fbOwned {
				w.pass.Reportf(end, "pooled frame buffer %s leaks: block ends without Release, a consuming send, or a transfer", obj.Name())
			} else {
				w.pass.Reportf(end, "pooled frame buffer %s may leak: consumed on some paths but not on the path ending here", obj.Name())
			}
		}
		delete(child, obj)
	}
	return child, term
}

func (w *fbWalker) walkStmt(s ast.Stmt, env fbEnv) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		created := w.trackCreations(st, env)
		w.applyExcluding(st, env, created)
		return false
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
					for i, val := range vs.Values {
						if w.isGetFrameBuf(val) {
							if obj, ok := w.pass.TypesInfo.Defs[vs.Names[i]].(*types.Var); ok {
								env[obj] = &fbVar{state: fbOwned}
							}
						}
					}
				}
			}
		}
		w.apply(st, env)
		return false
	case *ast.ExprStmt:
		w.apply(st, env)
		return isTerminatorCall(w.pass.TypesInfo, st.X)
	case *ast.ReturnStmt:
		w.apply(st, env)
		w.pathEnd(env, st.Pos())
		return true
	case *ast.DeferStmt:
		w.applyDefer(st, env)
		return false
	case *ast.GoStmt:
		w.apply(st, env)
		return false
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, env)
		}
		w.applyExpr(st.Cond, env)
		thenEnv, thenTerm := w.walkBlock(st.Body.List, env, st.Body.Rbrace)
		elseEnv, elseTerm := env, false
		if st.Else != nil {
			elseEnv, elseTerm = w.walkBlock([]ast.Stmt{st.Else}, env, st.Else.End())
		}
		if thenTerm && elseTerm {
			return true
		}
		if thenTerm {
			copyInto(env, elseEnv)
			return false
		}
		if elseTerm {
			copyInto(env, thenEnv)
			return false
		}
		mergeInto(env, thenEnv, elseEnv)
		return false
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, env)
		}
		if st.Cond != nil {
			w.applyExpr(st.Cond, env)
		}
		if st.Post != nil {
			w.walkStmt(st.Post, env)
		}
		bodyEnv, _ := w.walkBlock(st.Body.List, env, st.Body.Rbrace)
		if st.Cond == nil && !hasBreak(st.Body) {
			// for {} without break: the loop never falls through.
			copyInto(env, bodyEnv)
			return true
		}
		mergeInto(env, env.clone(), bodyEnv) // body may run zero times
		return false
	case *ast.RangeStmt:
		w.applyExpr(st.X, env)
		bodyEnv, _ := w.walkBlock(st.Body.List, env, st.Body.Rbrace)
		mergeInto(env, env.clone(), bodyEnv)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkClauses(st, env)
	case *ast.BlockStmt:
		child, term := w.walkBlock(st.List, env, st.Rbrace)
		copyInto(env, child)
		return term
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt, env)
	case *ast.BranchStmt:
		// break/continue/goto: ownership continues at the jump target;
		// treat as list-terminating so we neither miss nor double-report.
		return true
	case *ast.SendStmt, *ast.IncDecStmt:
		w.apply(st, env)
		return false
	default:
		if st != nil {
			w.apply(st, env)
		}
		return false
	}
}

// walkClauses handles switch/type-switch/select uniformly: each clause
// runs from the pre-state, and the post-state is the merge of every
// non-terminating clause (plus the pre-state when a switch has no
// default — then no clause may run at all).
func (w *fbWalker) walkClauses(s ast.Stmt, env fbEnv) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, env)
		}
		if st.Tag != nil {
			w.applyExpr(st.Tag, env)
		}
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, env)
		}
		w.apply(st.Assign, env)
		clauses = st.Body.List
	case *ast.SelectStmt:
		clauses = st.Body.List
		// A select always runs exactly one clause (without default it
		// blocks until one is ready), so the pre-state is never a
		// possible outcome on its own.
		hasDefault = true
	}
	var outs []fbEnv
	allTerm := len(clauses) > 0
	for _, c := range clauses {
		var body []ast.Stmt
		var end token.Pos
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.applyExpr(e, env)
			}
			body, end = cc.Body, cc.End()
		case *ast.CommClause:
			if cc.Comm != nil {
				body = append([]ast.Stmt{cc.Comm}, cc.Body...)
			} else {
				body = cc.Body
			}
			end = cc.End()
		}
		out, term := w.walkBlock(body, env, end)
		if !term {
			outs = append(outs, out)
			allTerm = false
		}
	}
	if !hasDefault || len(clauses) == 0 {
		outs = append(outs, env.clone())
		allTerm = false
	}
	if allTerm {
		return true
	}
	mergeInto(env, outs...)
	return false
}

// copyInto replaces env's entries with src's (same key set assumed for
// shared keys; keys only in src were scoped out already).
func copyInto(env, src fbEnv) {
	for obj := range env {
		if v, ok := src[obj]; ok {
			cp := *v
			env[obj] = &cp
		}
	}
}

// mergeInto joins several successor states: agreement keeps the state,
// any transfer wins (stop tracking silently), and a consumed/owned
// split degrades to fbMaybe.
func mergeInto(env fbEnv, outs ...fbEnv) {
	for obj := range env {
		var states []fbState
		deferred := false
		for _, o := range outs {
			if v, ok := o[obj]; ok {
				states = append(states, v.state)
				deferred = deferred || v.deferred
			}
		}
		if len(states) == 0 {
			continue
		}
		merged := states[0]
		for _, s := range states[1:] {
			merged = mergeState(merged, s)
		}
		env[obj] = &fbVar{state: merged, deferred: deferred}
	}
}

func mergeState(a, b fbState) fbState {
	if a == b {
		return a
	}
	if a == fbDone || b == fbDone {
		return fbDone
	}
	return fbMaybe
}

// --- creation ---------------------------------------------------------------

func (w *fbWalker) isGetFrameBuf(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isPkgCall(w.pass.TypesInfo, call, wirePath, "GetFrameBuf")
}

// trackCreations registers variables assigned from wire.GetFrameBuf and
// returns the set of objects (re)defined by this statement so their
// defining mention is not classified as a use.
func (w *fbWalker) trackCreations(st *ast.AssignStmt, env fbEnv) map[types.Object]bool {
	created := map[types.Object]bool{}
	if len(st.Lhs) == len(st.Rhs) {
		for i, rhs := range st.Rhs {
			if !w.isGetFrameBuf(rhs) {
				continue
			}
			id, ok := st.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj, _ := w.pass.TypesInfo.Defs[id].(*types.Var)
			if obj == nil {
				obj, _ = w.pass.TypesInfo.Uses[id].(*types.Var)
			}
			if obj == nil {
				continue
			}
			if old, ok := env[obj]; ok && old.state == fbOwned && !old.deferred {
				w.pass.Reportf(st.Pos(), "pooled frame buffer %s reassigned while still owned: previous buffer leaks", obj.Name())
			}
			env[obj] = &fbVar{state: fbOwned}
			created[obj] = true
		}
	}
	return created
}

// --- statement classification ------------------------------------------------

func (w *fbWalker) apply(node ast.Node, env fbEnv) {
	w.applyExcluding(node, env, nil)
}

func (w *fbWalker) applyExpr(e ast.Expr, env fbEnv) {
	if e != nil {
		w.applyExcluding(e, env, nil)
	}
}

func (w *fbWalker) applyExcluding(node ast.Node, env fbEnv, exclude map[types.Object]bool) {
	for obj, v := range env {
		if v.state == fbDone || exclude[obj] {
			continue
		}
		eff := w.classify(node, obj)
		if !eff.use {
			continue
		}
		if v.state == fbConsumed && !v.deferred {
			w.pass.Reportf(eff.pos, "use of pooled frame buffer %s after it was consumed by %s", obj.Name(), v.consumeVia)
			v.state = fbDone // one report per buffer
			continue
		}
		switch {
		case eff.consume:
			v.state = fbConsumed
			v.consumeVia = eff.via
		case eff.transfer:
			v.state = fbDone
		case eff.deferred:
			v.deferred = true
		}
	}
}

func (w *fbWalker) applyDefer(st *ast.DeferStmt, env fbEnv) {
	for obj, v := range env {
		if v.state == fbDone {
			continue
		}
		if usesIdentOf(w.pass.TypesInfo, st.Call, obj) {
			// Any defer touching the buffer is taken as a deferred
			// consume (defer fb.Release() and friends).
			v.deferred = true
		}
	}
}

// borrowMethods are *wire.FrameBuf methods that read or fill the buffer
// without moving ownership.
var fbBorrowMethods = map[string]bool{
	"Body": true, "ID": true, "Type": true, "WireLen": true, "SetFrame": true,
}

// classify computes the strongest effect node has on obj. Within one
// statement the ordering of multiple uses is not modeled; consume wins
// over transfer wins over bare use.
func (w *fbWalker) classify(node ast.Node, obj *types.Var) fbEffect {
	info := w.pass.TypesInfo
	var eff fbEffect
	record := func(e fbEffect) {
		if !eff.use {
			eff = e
			return
		}
		eff.use = true
		if e.consume {
			eff.consume, eff.transfer, eff.via, eff.pos = true, false, e.via, e.pos
		} else if e.transfer && !eff.consume {
			eff.transfer = true
		}
		eff.deferred = eff.deferred || e.deferred
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if usesIdentOf(info, x.Body, obj) {
				// Captured by a closure: ownership now depends on when
				// (and whether) the closure runs — treat as transferred.
				record(fbEffect{use: true, transfer: true, pos: x.Pos()})
			}
			return false
		case *ast.CallExpr:
			if e, handled := w.classifyCall(x, obj); handled {
				if e.use {
					record(e)
				}
				return false
			}
			return true
		case *ast.SendStmt:
			if identIs(info, x.Value, obj) {
				record(fbEffect{use: true, transfer: true, pos: x.Value.Pos()})
				visitChildren(x.Chan, visit)
				return false
			}
			return true
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if identIs(info, r, obj) {
					record(fbEffect{use: true, transfer: true, pos: r.Pos()})
				} else {
					visitChildren(r, visit)
				}
			}
			return false
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if identIs(info, r, obj) {
					// Aliased into another variable / field / slot.
					record(fbEffect{use: true, transfer: true, pos: r.Pos()})
				} else {
					visitChildren(r, visit)
				}
			}
			for _, l := range x.Lhs {
				visitChildren(l, visit)
			}
			return false
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if identIs(info, v, obj) {
					record(fbEffect{use: true, transfer: true, pos: v.Pos()})
				} else {
					visitChildren(v, visit)
				}
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND && identIs(info, x.X, obj) {
				record(fbEffect{use: true, transfer: true, pos: x.Pos()})
				return false
			}
			return true
		case *ast.Ident:
			if info.Uses[x] == obj {
				record(fbEffect{use: true, pos: x.Pos()})
			}
			return true
		}
		return true
	}
	visitChildren(node, visit)
	return eff
}

// classifyCall decides what a call does to obj when obj is its receiver
// or an argument. handled=false means the call is not about obj at the
// top level and the walker should descend normally.
func (w *fbWalker) classifyCall(call *ast.CallExpr, obj *types.Var) (fbEffect, bool) {
	info := w.pass.TypesInfo
	// Method call on the buffer itself: fb.Release() consumes,
	// fb.Body()/SetFrame(...) borrow.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && identIs(info, sel.X, obj) {
		name := sel.Sel.Name
		switch {
		case name == "Release":
			return fbEffect{use: true, consume: true, via: "Release", pos: call.Pos()}, true
		case fbBorrowMethods[name]:
			eff := fbEffect{use: true, pos: call.Pos()}
			for _, a := range call.Args {
				if identIs(info, a, obj) {
					eff.transfer = true
				}
			}
			return eff, true
		default:
			// Unknown method on the buffer: borrow, stay conservative.
			return fbEffect{use: true, pos: call.Pos()}, true
		}
	}
	// Buffer passed as an argument.
	for _, a := range call.Args {
		if !identIs(info, a, obj) {
			continue
		}
		switch {
		case isPkgCall(info, call, wirePath, "WriteFrame"), isPkgCall(info, call, wirePath, "ReadFrame"):
			// Documented borrows: the frame helpers do not release.
			return fbEffect{use: true, pos: a.Pos()}, true
		case calleeNameIs(call, "Send", "SendBatch", "send", "sendBatch"):
			// Consuming sends: transport.Conn.Send/SendBatch, the Mem
			// pipe's send and the rpc batcher's enqueue, which own the
			// frame even on error (PROTOCOL.md rule 3).
			return fbEffect{use: true, consume: true, via: calleeDisplayName(call), pos: a.Pos()}, true
		default:
			// Transfer to a documented ownership-taking callee.
			return fbEffect{use: true, transfer: true, pos: a.Pos()}, true
		}
	}
	return fbEffect{}, false
}

// --- weak tracking: ownership received from Call/Recv ------------------------

// checkWeak flags response buffers (from calls returning *wire.FrameBuf
// that are not GetFrameBuf) that the function never releases nor
// transfers anywhere. Error paths are not modeled here — on error those
// results are nil — so this is a whole-function existence check.
func (w *fbWalker) checkWeak(body *ast.BlockStmt) {
	info := w.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // visited as its own function by funcBodies
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok || w.isGetFrameBuf(st.Rhs[0]) {
			return true
		}
		tv, ok := info.Types[call]
		if !ok {
			return true
		}
		var results []types.Type
		if tup, ok := tv.Type.(*types.Tuple); ok {
			for i := 0; i < tup.Len(); i++ {
				results = append(results, tup.At(i).Type())
			}
		} else {
			results = []types.Type{tv.Type}
		}
		if len(results) != len(st.Lhs) {
			return true
		}
		for i, t := range results {
			if !isFrameBufPtr(t) {
				continue
			}
			id, ok := st.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				w.pass.Reportf(st.Pos(), "frame buffer returned by %s is discarded without Release (the caller owns it)", calleeDisplayName(call))
				continue
			}
			obj, _ := info.Defs[id].(*types.Var)
			if obj == nil {
				continue // assignment to an existing var: assume managed elsewhere
			}
			if !w.hasOwnershipUse(body, obj) {
				w.pass.Reportf(id.Pos(), "frame buffer %s returned by %s is never released or transferred (the caller owns it)", id.Name, calleeDisplayName(call))
			}
		}
		return true
	})
}

// hasOwnershipUse reports whether obj has at least one consuming or
// transferring use anywhere in body.
func (w *fbWalker) hasOwnershipUse(body *ast.BlockStmt, obj *types.Var) bool {
	info := w.pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && identIs(info, sel.X, obj) && sel.Sel.Name == "Release" {
				found = true
				return false
			}
			for _, a := range x.Args {
				if identIs(info, a, obj) {
					found = true // transferred or consumed by the callee
					return false
				}
			}
		case *ast.SendStmt:
			if identIs(info, x.Value, obj) {
				found = true
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if identIs(info, r, obj) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if identIs(info, r, obj) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if identIs(info, v, obj) {
					found = true
				}
			}
		case *ast.FuncLit:
			if usesIdentOf(info, x.Body, obj) {
				found = true
			}
			return false
		}
		return !found
	})
	return found
}

// --- small shared helpers -----------------------------------------------------

func identIs(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

func calleeNameIs(call *ast.CallExpr, names ...string) bool {
	var name string
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return false
	}
	for _, n := range names {
		if name == n {
			return true
		}
	}
	return false
}

func calleeDisplayName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return "call"
}

// isTerminatorCall reports whether e is a call that never returns:
// panic, os.Exit, log.Fatal*.
func isTerminatorCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	if f := calleeFunc(info, call); f != nil && f.Pkg() != nil {
		switch {
		case f.Pkg().Path() == "os" && f.Name() == "Exit",
			f.Pkg().Path() == "log" && (f.Name() == "Fatal" || f.Name() == "Fatalf" || f.Name() == "Fatalln"):
			return true
		}
	}
	return false
}

// visitChildren runs fn over node itself (ast.Inspect semantics).
func visitChildren(node ast.Node, fn func(ast.Node) bool) {
	if node != nil {
		ast.Inspect(node, fn)
	}
}

// hasBreak coarsely reports whether body contains a break statement
// (nesting into inner loops is not modeled; over-approximating keeps
// the for{} never-falls-through special case sound).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.BREAK {
			found = true
		}
		return !found
	})
	return found
}
