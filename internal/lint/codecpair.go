package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"github.com/lpd-epfl/mvtl/internal/lint/analysis"
)

// CodecPairAnalyzer keeps the wire message catalog closed under its
// three registrations: every named struct type with an
// AppendTo(buf []byte) []byte method (the wire.Message encoder half)
// must have exactly one decoder — a package-level Decode<Type> function
// or a DecodeInto method, not both — and an entry in the codecCases
// fuzz seed corpus that FuzzDecodeMessages and the round-trip/truncation
// property tests iterate. A message missing a leg ships encodes nobody
// can decode, or a decoder the fuzzer never stresses; a message with two
// decoders has two spellings of one format to keep in step.
//
// The analyzer runs on the wire package and on packages marked with a
// //mvtl:wire-codec comment (fixtures).
var CodecPairAnalyzer = &analysis.Analyzer{
	Name: "codecpair",
	Doc: "check every wire message type has AppendTo, exactly one decoder and a " +
		"codecCases fuzz seed corpus entry",
	Run: runCodecPair,
}

const codecMarker = "mvtl:wire-codec"

func runCodecPair(pass *analysis.Pass) error {
	if pass.PkgPath != wirePath && !hasMarker(pass, codecMarker) {
		return nil
	}

	corpus, corpusFound := fuzzCorpusKeys(pass.TestFiles)

	scope := pass.Pkg.Scope()
	reportedMissingCorpus := false
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			continue
		}
		if !hasAppendTo(named) {
			continue
		}
		switch fn, into := decoders(scope, named); {
		case !fn && !into:
			pass.Reportf(tn.Pos(), "wire message %s has AppendTo but no Decode%s function or DecodeInto method: encodes would be undecodable", name, name)
		case fn && into:
			pass.Reportf(tn.Pos(), "wire message %s has two decoders, a Decode%s function and a DecodeInto method: keep one", name, name)
		}
		if !corpusFound {
			if !reportedMissingCorpus {
				pass.Reportf(tn.Pos(), "no codecCases fuzz seed corpus found in package test files: message codecs are not fuzzed")
				reportedMissingCorpus = true
			}
			continue
		}
		if !corpus[name] {
			pass.Reportf(tn.Pos(), "wire message %s missing from the codecCases fuzz seed corpus: its codec is never fuzzed or property-tested", name)
		}
	}
	return nil
}

func hasMarker(pass *analysis.Pass, marker string) bool {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, marker) {
					return true
				}
			}
		}
	}
	return false
}

// hasAppendTo reports whether *T has method AppendTo([]byte) []byte.
func hasAppendTo(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != "AppendTo" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
			return false
		}
		return isByteSlice(sig.Params().At(0).Type()) && isByteSlice(sig.Results().At(0).Type())
	}
	return false
}

// decoders reports whether T has a package-level Decode<T> function and
// whether it has a DecodeInto method.
func decoders(scope *types.Scope, named *types.Named) (fn, into bool) {
	_, fn = scope.Lookup("Decode" + named.Obj().Name()).(*types.Func)
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "DecodeInto" {
			into = true
		}
	}
	return fn, into
}

// fuzzCorpusKeys extracts the string keys of the codecCases map
// composite literal from the (parse-only) test files.
func fuzzCorpusKeys(testFiles []*ast.File) (map[string]bool, bool) {
	keys := map[string]bool{}
	found := false
	for _, f := range testFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			var name string
			var value ast.Expr
			switch x := n.(type) {
			case *ast.ValueSpec:
				if len(x.Names) == 1 && len(x.Values) == 1 {
					name, value = x.Names[0].Name, x.Values[0]
				}
			case *ast.AssignStmt:
				if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
					if id, ok := x.Lhs[0].(*ast.Ident); ok {
						name, value = id.Name, x.Rhs[0]
					}
				}
			}
			if name != "codecCases" || value == nil {
				return true
			}
			lit, ok := ast.Unparen(value).(*ast.CompositeLit)
			if !ok {
				return true
			}
			found = true
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if bl, ok := kv.Key.(*ast.BasicLit); ok {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						keys[s] = true
					}
				}
			}
			return true
		})
	}
	return keys, found
}
