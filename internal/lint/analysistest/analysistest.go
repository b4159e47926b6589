// Package analysistest runs lint analyzers against fixture packages and
// checks their diagnostics against `// want` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (which is not available
// offline). Fixtures are real packages of this module, placed under
// internal/lint/testdata/src/... — the testdata path segment hides them
// from ./... wildcards, so deliberately-broken fixtures never reach
// builds, but explicit `go list` paths still resolve them, and they may
// import the real wire/transport/rpc packages.
//
// A want comment names one or more message regexps expected on its
// line:
//
//	t := time.Now()              // want `wall-clock read time.Now`
//	time.Sleep(time.Millisecond) // want "raw timer" "second"
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/lint"
	"github.com/lpd-epfl/mvtl/internal/lint/analysis"
	"github.com/lpd-epfl/mvtl/internal/lint/loader"
)

// Run loads each fixture package directory (relative to the test's
// working directory) and checks analyzer diagnostics against the
// fixtures' want comments.
func Run(t *testing.T, analyzers []*analysis.Analyzer, dirs ...string) {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./" + d
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}

	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	wants := collectWants(t, pkgs)
	for _, f := range findings {
		key := posKey{file: f.Pos.Filename, line: f.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", f.Pos, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, pkgs []*loader.Package) map[posKey][]*want {
	t.Helper()
	wants := map[posKey][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := posKey{file: pos.Filename, line: pos.Line}
					for _, pat := range splitPatterns(strings.TrimPrefix(text, "want ")) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// splitPatterns parses a sequence of quoted (double or back) strings.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				return out
			}
			if u, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, u)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		default:
			return out
		}
	}
	return out
}
