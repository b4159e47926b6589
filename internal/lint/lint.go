// Package lint implements mvtl's project-specific static analyzers.
// Each analyzer mechanically enforces an invariant that PROTOCOL.md or
// TESTING.md states in prose, that the compiler cannot see, and that
// no other test catches — see TESTING.md "Mechanically enforced
// invariants" for the mutation each one is kept for:
//
//   - determinism: in //mvtl:deterministic packages (and
//     internal/faultbed), no wall-clock reads, no global math/rand, no
//     multi-case selects, no output-feeding iteration over unsorted
//     maps — the H13 same-seed ⇒ byte-identical-transcript rule.
//   - lockorder: no mutex held across a blocking RPC or transport
//     send, such as a per-peer mutex held over a call to that peer.
//
// TestLint runs them over both modules of the tree, so `go test ./...`
// fails on any finding. There is no suppression directive. Pooled
// wire.FrameBuf ownership has no analyzer: the pool checks it at run
// time (wire.Outstanding, internal/wiretest).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/lpd-epfl/mvtl/internal/lint/analysis"
	"github.com/lpd-epfl/mvtl/internal/lint/loader"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		LockOrderAnalyzer,
	}
}

// Finding is one diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies analyzers to pkgs and returns their findings sorted by
// position.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				PkgPath:   pkg.PkgPath,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// --- shared type helpers ------------------------------------------------------

const (
	transportPath = "github.com/lpd-epfl/mvtl/internal/transport"
	rpcPath       = "github.com/lpd-epfl/mvtl/internal/rpc"
)

// namedAs reports whether t (after stripping one pointer) is the named
// type pkgPath.name.
func namedAs(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeFunc resolves a call to its *types.Func (package function or
// method), or nil for builtins, conversions, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Package-qualified call: pkg.Fn.
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// methodOn reports whether call is a method call named name whose
// receiver (after stripping one pointer) is pkgPath.typeName.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	return namedAs(s.Recv(), pkgPath, typeName)
}

// funcBodies yields every function/method body and every function
// literal body in the file, each exactly once, paired with a printable
// name. Function literals are visited as independent functions.
func funcBodies(f *ast.File, visit func(name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Name.Name, fn.Body)
			}
		case *ast.FuncLit:
			visit("func literal", fn.Body)
		}
		return true
	})
}
