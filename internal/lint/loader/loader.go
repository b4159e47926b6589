// Package loader type-checks Go packages for the lint suite without
// depending on golang.org/x/tools/go/packages. It shells out to
// `go list -e -export -deps -json` — which compiles dependencies (into
// the build cache) and reports the gc export-data file of every one —
// then parses the target packages from source and type-checks them
// with go/types, resolving imports from that export data via
// importer.ForCompiler's lookup hook. Everything runs offline: the
// toolchain and the standard library are the only inputs.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked target package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet

	// Syntax holds the type-checked non-test files.
	Syntax []*ast.File

	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns relative to dir (module-aware), type-checks every
// matched non-dependency package from source, and returns them in
// `go list` order. All packages share one FileSet so diagnostic
// positions are comparable across the run.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			if p.Error != nil {
				return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
			}
			q := p
			targets = append(targets, &q)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("loader: no packages matched %s", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q (package failed to compile?)", path)
		}
		return os.Open(exp)
	})

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func check(fset *token.FileSet, imp types.Importer, t *listPkg) (*Package, error) {
	var syntax []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %s: %v", t.ImportPath, err)
		}
		syntax = append(syntax, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(t.ImportPath, fset, syntax, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("loader: type-checking %s: %v", t.ImportPath, errors.Join(typeErrs...))
	}
	return &Package{
		PkgPath:   t.ImportPath,
		Dir:       t.Dir,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
