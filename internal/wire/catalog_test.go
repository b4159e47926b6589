package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestMessageCatalog keeps the message catalog closed. Every struct type
// of the package's non-test files with an AppendTo([]byte) []byte
// encoder must have exactly one decoder, a Decode<T> function or a
// DecodeInto method; a generator in codecCases; an entry in decoderCases,
// which seeds and drives it in FuzzDecodeMessages; and an entry in
// newIntoTwins exactly when its decoder is a DecodeInto. No table may
// name anything else.
func TestMessageCatalog(t *testing.T) {
	files, _ := filepath.Glob("*.go")
	structs, funcs, appendTo, into := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				_, structs[n.Name.Name] = n.Type.(*ast.StructType)
			case *ast.FuncDecl:
				if n.Recv == nil {
					funcs[n.Name.Name] = true
					return false
				}
				recv := n.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				typ := types.ExprString(recv)
				into[typ] = into[typ] || n.Name.Name == "DecodeInto"
				appendTo[typ] = appendTo[typ] || n.Name.Name == "AppendTo" && bytesToBytes(n.Type)
				return false
			}
			return true
		})
	}
	codecs, decoders, twins := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for name := range codecCases {
		codecs[name] = true
	}
	for _, dc := range decoderCases {
		decoders[dc.name] = true
	}
	for name := range newIntoTwins() {
		twins[name] = true
	}
	messages := map[string]bool{}
	for name, isStruct := range structs {
		if !isStruct || !appendTo[name] {
			continue
		}
		messages[name] = true
		if fn := funcs["Decode"+name]; fn == into[name] {
			t.Errorf("%s: want one decoder, has Decode%[1]s %v and DecodeInto %v", name, fn, into[name])
		}
		if !codecs[name] || !decoders[name] || twins[name] != into[name] {
			t.Errorf("%s: in codecCases %v, decoderCases %v, newIntoTwins %v; has DecodeInto %v", name, codecs[name], decoders[name], twins[name], into[name])
		}
	}
	for _, table := range []map[string]bool{codecs, decoders, twins} {
		for name := range table {
			if !messages[name] {
				t.Errorf("%s is listed as a message but has no AppendTo encoder", name)
			}
		}
	}
	t.Logf("%d messages, %d with DecodeInto", len(messages), len(twins))
}

// bytesToBytes reports whether sig is func([]byte) []byte.
func bytesToBytes(sig *ast.FuncType) bool {
	in, out := sig.Params, sig.Results
	return in.NumFields() == 1 && out.NumFields() == 1 &&
		types.ExprString(in.List[0].Type) == "[]byte" && types.ExprString(out.List[0].Type) == "[]byte"
}
