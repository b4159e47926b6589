package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/lpd-epfl/mvtl/internal/lint/analysis"
)

// BorrowedViewAnalyzer enforces PROTOCOL.md "Buffer ownership" rule 5:
// every []byte decoded from a frame (wire.Decoder.Blob, FrameBuf.Body,
// and the blob fields of wire.Decode*/DecodeInto results) is a borrowed
// view into the pooled frame body, valid only until the buffer is
// released — and so is every string a request's DecodeInto fills in
// (wire.Decoder.StrView, and the keys and addresses of a wire *Req
// message decoded in place). Storing such a view into a struct field, a
// global, or a map, using a string view as a map key, or capturing one
// in a goroutine closure, without an intervening bytes.Clone /
// strings.Clone (or a copying conversion like string(b) /
// append(dst, b...)) is a use-after-release waiting for pool reuse.
//
// The strings of responses are materialized by the decoder and are not
// tracked.
//
// The wire package itself is exempt: its decoders construct the views
// by design.
var BorrowedViewAnalyzer = &analysis.Analyzer{
	Name: "borrowedview",
	Doc: "flag borrowed frame-body views ([]byte: Decoder.Blob, FrameBuf.Body, decoded " +
		"message blob fields; string: Decoder.StrView, the strings of a request decoded " +
		"with DecodeInto) stored into fields, globals, maps, or goroutine closures " +
		"without bytes.Clone / strings.Clone",
	Run: runBorrowedView,
}

func runBorrowedView(pass *analysis.Pass) error {
	if pass.PkgPath == wirePath {
		return nil
	}
	// Unlike the other analyzers, function literals are NOT analyzed
	// independently here: a closure shares its enclosing function's
	// variables, so each top-level function body is walked once with
	// its literals inline.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			bv := &bvWalker{pass: pass, events: map[*types.Var][]bvEvent{}, containers: map[*types.Var]bvKind{}, paths: map[string]bvKind{}}
			bv.collect(fn.Body)
			bv.checkStores(fn.Body)
		}
	}
	return nil
}

// bvEvent records that a variable became borrowed or clean at pos.
type bvEvent struct {
	pos      token.Pos
	borrowed bool
}

type bvWalker struct {
	pass *analysis.Pass

	// events, per variable, in source order: the latest event before a
	// use decides whether the use sees a borrowed view.
	events map[*types.Var][]bvEvent

	// containers holds variables whose value is (or aggregates) a
	// decoded wire message, so their []byte-typed field selections —
	// and, for a request decoded in place, their string-typed ones —
	// are borrowed views.
	containers map[*types.Var]bvKind

	// paths is containers for DecodeInto receivers that are not plain
	// variables (c.scratch.DecodeInto(b)), keyed by the receiver
	// expression as written.
	paths map[string]bvKind
}

// bvKind says what a decoded container borrows from its frame.
type bvKind uint8

const (
	bvNone  bvKind = iota
	bvBlobs        // its []byte fields
	bvAll          // its []byte and its string fields
)

// --- phase 1: taint collection -----------------------------------------------

// collect walks body in source order, recording which variables hold
// borrowed views or decoded-message containers at which positions.
// Function literals are walked too: they share the enclosing scope.
func (bv *bvWalker) collect(body *ast.BlockStmt) {
	info := bv.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			bv.collectAssign(st)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
						for i, val := range vs.Values {
							bv.classifyBinding(vs.Names[i], val, info.Defs[vs.Names[i]])
						}
					}
				}
			}
		case *ast.RangeStmt:
			// Ranging over a decoded container (e.g. resp.Results,
			// req.Keys) makes the value variable one too: a container
			// of the same kind, or itself a view when it is a string
			// or a []byte.
			kind := bv.containerish(st.X)
			if kind == bvNone && bv.taints(st.X) {
				kind = bvBlobs
			}
			if kind != bvNone {
				if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
					if obj, ok := info.Defs[id].(*types.Var); ok {
						if isView(obj.Type()) {
							bv.events[obj] = append(bv.events[obj], bvEvent{pos: id.Pos(), borrowed: kind == bvAll || isByteSlice(obj.Type())})
						} else {
							bv.containers[obj] = kind
						}
					}
				}
			}
		case *ast.CallExpr:
			// m.DecodeInto(buf) fills m with borrowed views: its blobs,
			// and for a request its strings too.
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "DecodeInto" {
				kind := bvBlobs
				if isWireRequest(typeOf(info, sel.X)) {
					kind = bvAll
				}
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if obj, ok := info.Uses[id].(*types.Var); ok {
						bv.containers[obj] = kind
					}
				} else {
					bv.paths[types.ExprString(ast.Unparen(sel.X))] = kind
				}
			}
		}
		return true
	})
}

func (bv *bvWalker) collectAssign(st *ast.AssignStmt) {
	info := bv.pass.TypesInfo
	// Tuple form: v, err := wire.DecodeX(buf).
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && bv.isWireDecodeCall(call) {
			if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if obj, ok := bindingVar(info, id).(*types.Var); ok {
					bv.containers[obj] = bvBlobs
				}
			}
		}
		return
	}
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, rhs := range st.Rhs {
		id, ok := st.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		bv.classifyBinding(id, rhs, bindingVar(info, id))
	}
}

// classifyBinding records the effect of `id = rhs` (or := / var).
func (bv *bvWalker) classifyBinding(id *ast.Ident, rhs ast.Expr, obj types.Object) {
	v, ok := obj.(*types.Var)
	if !ok || v == nil {
		return
	}
	if isView(v.Type()) {
		bv.events[v] = append(bv.events[v], bvEvent{pos: id.Pos(), borrowed: bv.taints(rhs)})
		return
	}
	// Neither []byte nor string: container propagation (decoded
	// structs, slices/maps of them, and copies thereof).
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && bv.isWireDecodeCall(call) {
		bv.containers[v] = bvBlobs
		return
	}
	if kind := bv.containerish(rhs); kind != bvNone {
		bv.containers[v] = kind
	}
}

// isWireDecodeCall matches wire.Decode* package functions.
func (bv *bvWalker) isWireDecodeCall(call *ast.CallExpr) bool {
	f := calleeFunc(bv.pass.TypesInfo, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == wirePath &&
		strings.HasPrefix(f.Name(), "Decode") && f.Type().(*types.Signature).Recv() == nil
}

// --- phase 2: escape checks ---------------------------------------------------

func (bv *bvWalker) checkStores(body *ast.BlockStmt) {
	info := bv.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				rhs := st.Rhs[i]
				// m[k] = v keeps k as long as the entry lives.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(typeOf(info, ix.X)) && bv.taints(ix.Index) {
					bv.pass.Reportf(st.Pos(),
						"borrowed frame view used as a key of map %s without strings.Clone: the bytes die when the frame buffer is released", types.ExprString(ix.X))
				}
				view := bv.storedView(rhs)
				if view == nil {
					continue
				}
				if why := bv.escapingLValue(lhs); why != "" {
					bv.pass.Reportf(st.Pos(),
						"borrowed frame view stored into %s without %s: the bytes die when the frame buffer is released", why, cloneFor(view))
				}
			}
		case *ast.GoStmt:
			bv.checkClosureCapture(st.Call, "goroutine")
			return true
		}
		return true
	})
}

// checkClosureCapture flags borrowed views referenced inside function
// literals that escape the frame's synchronous lifetime (go statements).
func (bv *bvWalker) checkClosureCapture(call *ast.CallExpr, how string) {
	info := bv.pass.TypesInfo
	ast.Inspect(call, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := info.Uses[id].(*types.Var)
			if !ok || !isView(obj.Type()) {
				return true
			}
			if bv.borrowedAt(obj, id.Pos()) {
				bv.pass.Reportf(id.Pos(),
					"borrowed frame view %s captured by a %s closure without %s: the frame buffer may be released before it runs", id.Name, how, cloneFor(obj.Type()))
			}
			return true
		})
		return false
	})
}

// escapingLValue describes why storing into lhs outlives the frame, or
// returns "" when the store target is safely local.
func (bv *bvWalker) escapingLValue(lhs ast.Expr) string {
	info := bv.pass.TypesInfo
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			return "struct field " + types.ExprString(l)
		}
		if obj, ok := info.Uses[l.Sel].(*types.Var); ok && obj.Parent() == obj.Pkg().Scope() {
			return "package-level variable " + types.ExprString(l)
		}
	case *ast.IndexExpr:
		if isMap(typeOf(info, l.X)) {
			return "map " + types.ExprString(l.X)
		}
		// Slice element store: escaping when the slice itself lives in
		// a field or global (xs[i] = v with xs a bare local stays
		// within the frame's scope and is the caller's problem).
		if why := bv.escapingLValue(l.X); why != "" {
			return "slice in " + why
		}
		return ""
	case *ast.Ident:
		if obj, ok := info.Uses[l].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return "package-level variable " + l.Name
		}
	}
	return ""
}

// --- taint predicates ---------------------------------------------------------

// borrowedAt reports whether v holds a borrowed view at pos.
func (bv *bvWalker) borrowedAt(v *types.Var, pos token.Pos) bool {
	state := false
	for _, e := range bv.events[v] {
		if e.pos > pos {
			break
		}
		state = e.borrowed
	}
	return state
}

// containerish reports whether e denotes a decoded-message aggregate —
// a container variable, a DecodeInto receiver path, or a
// selector/index/slice path rooted at one — and what it borrows.
func (bv *bvWalker) containerish(e ast.Expr) bvKind {
	info := bv.pass.TypesInfo
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Var); ok {
			return bv.containers[obj]
		}
	case *ast.SelectorExpr:
		if kind, ok := bv.paths[types.ExprString(x)]; ok {
			return kind
		}
		return bv.containerish(x.X)
	case *ast.IndexExpr:
		return bv.containerish(x.X)
	case *ast.SliceExpr:
		return bv.containerish(x.X)
	case *ast.StarExpr:
		return bv.containerish(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return bv.containerish(x.X)
		}
	}
	return bvNone
}

// borrowedIn reports whether a value of type t read out of a container
// of the given kind is a borrowed view.
func borrowedIn(kind bvKind, t types.Type) bool {
	return kind != bvNone && isByteSlice(t) || kind == bvAll && isString(t)
}

// storedView returns the type of the borrowed view that assigning rhs
// somewhere stores there, or nil if it stores none: rhs is a view, or
// appends one as an element (append(dst, b...) copies b's bytes,
// append(keys, k) keeps the string k).
func (bv *bvWalker) storedView(rhs ast.Expr) types.Type {
	info := bv.pass.TypesInfo
	if t := typeOf(info, rhs); isView(t) {
		if bv.taints(rhs) {
			return t
		}
		return nil
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || call.Ellipsis.IsValid() {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 1 {
			for _, el := range call.Args[1:] {
				if t := typeOf(info, el); isView(t) && bv.taints(el) {
					return t
				}
			}
		}
	}
	return nil
}

// taints reports whether evaluating e yields (or aliases) borrowed
// frame bytes. Sanitizers — bytes.Clone, strings.Clone, a conversion
// between string and []byte, append(clean, v...) — act as barriers.
func (bv *bvWalker) taints(e ast.Expr) bool {
	info := bv.pass.TypesInfo
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if isPkgCall(info, x, "bytes", "Clone") || isPkgCall(info, x, "strings", "Clone") {
			return false
		}
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			// Conversion: between string and []byte it copies; within
			// either kind it keeps the backing array.
			if len(x.Args) != 1 {
				return false
			}
			from := typeOf(info, x.Args[0])
			if isByteSlice(tv.Type) && isByteSlice(from) || isString(tv.Type) && isString(from) {
				return bv.taints(x.Args[0])
			}
			return false
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				// append(dst, src...) copies src's bytes but still
				// aliases dst's array when capacity suffices.
				if len(x.Args) > 0 {
					return bv.taints(x.Args[0])
				}
				return false
			}
		}
		if methodOn(info, x, wirePath, "Decoder", "Blob") || methodOn(info, x, wirePath, "Decoder", "StrView") {
			return true
		}
		if methodOn(info, x, wirePath, "FrameBuf", "Body") {
			return true
		}
		return false
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Var); ok && isView(obj.Type()) {
			return bv.borrowedAt(obj, x.Pos())
		}
		return false
	case *ast.SelectorExpr:
		// A []byte field of a decoded message is a borrowed view, and
		// so is a string field of a request decoded in place.
		return borrowedIn(bv.containerish(x.X), typeOf(info, x))
	case *ast.IndexExpr:
		if borrowedIn(bv.containerish(x.X), typeOf(info, x)) {
			return true
		}
		return bv.taints(x.X)
	case *ast.SliceExpr:
		return bv.taints(x.X)
	case *ast.BinaryExpr:
		return false // comparisons/concats produce fresh values
	}
	return false
}

func bindingVar(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isView reports whether t is a type a borrowed view can have.
func isView(t types.Type) bool { return isByteSlice(t) || isString(t) }

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// cloneFor names the call that makes a view of type t its own.
func cloneFor(t types.Type) string {
	if isString(t) {
		return "strings.Clone"
	}
	return "bytes.Clone"
}

// isWireRequest reports whether t is (a pointer to) a wire request
// message: a named struct of the wire package whose name ends in Req.
// Their DecodeInto borrows strings as well as blobs; the responses'
// does not.
func isWireRequest(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == wirePath && strings.HasSuffix(n.Obj().Name(), "Req")
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
