package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/lpd-epfl/mvtl/internal/lint/analysis"
)

// DeterminismAnalyzer enforces the H13 same-seed ⇒ byte-identical-
// transcript rule from TESTING.md in packages that opt in: anything
// whose order or value can differ between two runs of the same seed
// must not reach transcripts, fault logs, or event logs. Concretely it
// forbids, in internal/faultbed and packages carrying a
// //mvtl:deterministic comment:
//
//   - wall-clock reads (time.Now, time.Since) — transcripts are
//     timestamp-free by construction;
//   - raw timers (time.Sleep, time.After, time.NewTimer, time.Tick,
//     time.AfterFunc) and deadline contexts (context.WithTimeout,
//     context.WithDeadline) — waits must route through clock.Timers so
//     a virtual timeline can advance them; a wall-clock wait stalls
//     the virtual run and decouples timeout order from the modeled
//     schedule;
//   - the global math/rand generators (seeded per-process, shared
//     across goroutines) — all randomness must derive from the
//     scenario seed via explicit streams or stateless hash coins;
//   - select statements with two or more communication cases — when
//     several cases are ready the runtime picks pseudo-randomly;
//   - ranging over a map when the loop body feeds output (printing,
//     Write/record/log calls, channel sends, or appends to an outer
//     slice that is never sorted afterwards) — map iteration order is
//     randomized per run.
//
// The collect-keys-then-sort idiom is recognized: appending map keys to
// a slice that a later sort.* / slices.Sort* call in the same function
// orders is allowed.
var DeterminismAnalyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "in //mvtl:deterministic packages forbid wall-clock reads, raw timers and " +
		"deadline contexts (use clock.Timers), global math/rand, multi-case selects, " +
		"and output-feeding iteration over unsorted maps",
	Run: runDeterminism,
}

const deterministicMarker = "mvtl:deterministic"

func runDeterminism(pass *analysis.Pass) error {
	if !deterministicPackage(pass) {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkMapRanges(pass, body)
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(info, x); fn != nil && fn.Pkg() != nil {
					switch {
					case fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until"):
						pass.Reportf(x.Pos(), "wall-clock read %s.%s in a deterministic package: transcripts must not depend on real time", fn.Pkg().Name(), fn.Name())
					case fn.Pkg().Path() == "time" && isRawTimer(fn.Name()):
						pass.Reportf(x.Pos(), "raw timer time.%s in a deterministic package: route the wait through clock.Timers so virtual time can advance it", fn.Name())
					case fn.Pkg().Path() == "context" && (fn.Name() == "WithTimeout" || fn.Name() == "WithDeadline"):
						pass.Reportf(x.Pos(), "wall-clock deadline context.%s in a deterministic package: derive the context from clock.Timers.WithTimeout instead", fn.Name())
					case isGlobalRand(fn):
						pass.Reportf(x.Pos(), "global math/rand call %s in a deterministic package: derive randomness from the scenario seed instead", fn.Name())
					}
				}
			case *ast.SelectStmt:
				comm := 0
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(x.Pos(), "select with %d communication cases in a deterministic package: the runtime picks ready cases pseudo-randomly", comm)
				}
			}
			return true
		})
	}
	return nil
}

// deterministicPackage reports whether the H13 rules apply: the fault
// bed always, plus any package opting in via a //mvtl:deterministic
// comment.
func deterministicPackage(pass *analysis.Pass) bool {
	if strings.HasSuffix(pass.PkgPath, "internal/faultbed") {
		return true
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, deterministicMarker) {
					return true
				}
			}
		}
	}
	return false
}

// isRawTimer matches the time-package functions that start a wait or a
// timer on the wall clock. time.Timer/Ticker values obtained elsewhere
// are not chased — the constructors are the chokepoint.
func isRawTimer(name string) bool {
	switch name {
	case "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker":
		return true
	}
	return false
}

// isGlobalRand matches package-level functions of math/rand and
// math/rand/v2 (methods on an explicit *rand.Rand carry their own
// seed and are fine).
func isGlobalRand(fn *types.Func) bool {
	p := fn.Pkg().Path()
	if p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil && fn.Name() != "New" && fn.Name() != "NewSource" &&
		fn.Name() != "NewChaCha8" && fn.Name() != "NewPCG" && fn.Name() != "NewZipf"
}

// checkMapRanges flags range-over-map loops whose body feeds output.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if why, at := outputFeeding(pass, body, rng); why != "" {
			pass.Reportf(at.Pos(), "map iteration order reaches output (%s): sort the keys first", why)
		}
		return true
	})
}

// outputFeeding decides whether the loop body of rng lets iteration
// order become observable, returning a description and position.
func outputFeeding(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) (string, ast.Node) {
	info := pass.TypesInfo
	var why string
	var at ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			name := calleeDisplayName(x)
			if outputCallName(name) {
				why, at = "call to "+name, x
				return false
			}
		case *ast.SendStmt:
			why, at = "channel send", x
			return false
		case *ast.AssignStmt:
			// xs = append(xs, ...) into a variable declared outside
			// the loop: order-sensitive unless sorted afterwards.
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
			if !ok || !isAppendCall(info, call) {
				return true
			}
			id, ok := ast.Unparen(x.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := info.ObjectOf(id).(*types.Var)
			if !ok || obj.Pos() >= rng.Pos() {
				return true // declared inside the loop: fresh each iteration
			}
			if sortedAfter(info, fnBody, rng, obj) {
				return true
			}
			why, at = "append to "+id.Name+" which is never sorted", x
			return false
		}
		return true
	})
	if why == "" {
		return "", nil
	}
	return why, at
}

// outputCallName matches callees that externalize data: printing,
// writers, transcript recording, logging.
func outputCallName(name string) bool {
	switch {
	case strings.HasPrefix(name, "Print"), strings.HasPrefix(name, "Fprint"):
		return true
	case name == "Write", name == "WriteString", name == "WriteByte", name == "WriteRune":
		return true
	case name == "record", name == "Record", name == "log", name == "logf", name == "Log", name == "Logf":
		return true
	}
	return false
}

func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether, after rng in the same function body, obj
// is passed to a sort.* or slices.Sort* call — the collect-then-sort
// idiom.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj *types.Var) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		p := fn.Pkg().Path()
		if p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if identIs(info, a, obj) {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

func identIs(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.Uses[id] == obj
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
