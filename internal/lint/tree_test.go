package lint_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/lint"
	"github.com/lpd-epfl/mvtl/internal/lint/loader"
)

// root is the repository root, seen from this package's directory.
const root = "../.."

// TestLint runs every analyzer over both modules of the tree: the root
// module, and benchmarks/, whose own go.mod hides it from the root's
// wildcards. Any finding fails.
func TestLint(t *testing.T) {
	for _, dir := range []string{root, root + "/benchmarks"} {
		pkgs, err := loader.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		findings, err := lint.Run(pkgs, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Error(f)
		}
	}
}

// onePathRules are the tree's one-path rules. Each job has one path, and
// each row forbids the pattern a second path would bring back. A row
// reads like `grep -rn pattern paths`, from the repository root.
var onePathRules = []struct {
	name    string
	paths   []string // files, or directories walked recursively
	goOnly  bool     // only *.go files are in scope
	noTests bool     // _test.go files are out of scope
	pattern string   // a match anywhere in a line is a violation
	allow   []string // files, or directories ending in "/", exempt from the rule
	sample  string   // a line the pattern must match, so a mistyped pattern cannot pass forever
	reason  string
}{
	{
		name: "policy-table", paths: []string{"."}, goOnly: true, noTests: true,
		pattern: `policy\.New[A-Z]`,
		// benchmarks/env.go is the one exception: it builds MVTIL over its
		// own clock by hand because mvtl.Open does not take a clock yet.
		allow:  []string{"internal/policy/", "benchmarks/env.go"},
		sample: `	p := policy.NewMVTIL(clk, delta)`,
		reason: "policies are built only by internal/policy's table, and by tests",
	},
	{
		name: "frame-way-out", paths: []string{"internal", "cmd", "examples"}, goOnly: true,
		pattern: `replyFlusher|PerFrame|PerByte|senderWakeGrace`,
		sample:  `	PerFrame time.Duration`,
		reason:  "server replies flush through the connection's batcher; Mem models no sender occupancy",
	},
	{
		name: "deadlock-edges", paths: []string{"internal/wire/batch.go"},
		pattern: `Edges`,
		sample:  `	Edges []WaitEdge`,
		reason:  "wait-for edges reach a coordinator only through its poll",
	},
	{
		name: "deadlock-off-switch", paths: []string{"internal", "cmd", "examples"}, goOnly: true,
		pattern: `DeadlockPoll: -1`,
		sample:  `	c, err := client.New(client.Config{Servers: addrs, DeadlockPoll: -1})`,
		reason:  "the deadlock detector has no off switch",
	},
	{
		name: "deadlock-observe", paths: []string{"internal/client"}, goOnly: true,
		pattern: `observe\(|deadlock\.Graph`,
		sample:  `	graph deadlock.Graph`,
		reason:  "wait-for edges reach a coordinator only through its poll",
	},
	{
		name: "footprint-home", paths: []string{"internal/core"},
		pattern: `footBuf|writeOrderBuf|footInline`,
		sample:  `	footBuf [4]footEntry`,
		reason:  "a transaction's footprint lives in its pooled scratch, with no inline buffer in the Txn",
	},
	{
		name: "txn-setting-home", paths: []string{"internal/core/txn.go"},
		pattern: `backend +Backend|PolicyState|Clock +\*clock`,
		sample:  `	Clock    *clock.Process`,
		reason:  "the backend is the engine's; the policy state and the clock override ride the pooled scratch",
	},
	{
		name: "carve-path", paths: []string{"internal/client/remote.go"},
		pattern: `bytes.Clone|maxCarved`,
		sample:  `		v = bytes.Clone(res.Value)`,
		reason:  "every value read is lent from the coordinator's region, whatever its size; none is cloned alone",
	},
	{
		name: "version-layout", paths: []string{"internal/version/version.go"},
		pattern: `"sort"|versions \[\]Version`,
		sample:  `	versions []Version`,
		reason:  "a key's history is a newest-first chain of arena nodes, not a sorted slice",
	},
	{
		name: "key-history", paths: []string{"internal"}, goOnly: true,
		pattern: `Versions \*version\.List|\.Versions\.|again bool`,
		sample:  `	Versions *version.List`,
		reason:  "a key's history lives in its lock table, and its read step picks and locks in one critical section, with no retry",
	},
	{
		name: "decision-per-txn", paths: []string{"internal/commitment"},
		pattern: `type Object|\) Object\(`,
		sample:  `func (s *Server) Object(txn uint64) *Object {`,
		reason:  "a decision server keeps a Decision per transaction, not an object",
	},
}

// TestOnePath fails on any line that breaks a one-path rule. This file
// spells every pattern and is in no rule's scope; hidden directories
// (.git, build caches) hold no source and are not walked.
func TestOnePath(t *testing.T) {
	const self = "internal/lint/tree_test.go"
	for _, rule := range onePathRules {
		t.Run(rule.name, func(t *testing.T) {
			re := regexp.MustCompile(rule.pattern)
			if !re.MatchString(rule.sample) {
				t.Fatalf("pattern %q misses its own sample %q: the rule checks nothing", rule.pattern, rule.sample)
			}
			for _, p := range rule.paths {
				err := filepath.WalkDir(filepath.Join(root, p), func(path string, d fs.DirEntry, err error) error {
					if err != nil {
						return err
					}
					rel, _ := filepath.Rel(root, path)
					rel = filepath.ToSlash(rel)
					switch {
					case d.IsDir():
						if rel != "." && strings.HasPrefix(d.Name(), ".") {
							return filepath.SkipDir
						}
						return nil
					case rel == self,
						rule.goOnly && !strings.HasSuffix(rel, ".go"),
						rule.noTests && strings.HasSuffix(rel, "_test.go"),
						allowed(rel, rule.allow):
						return nil
					}
					data, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					for i, line := range strings.Split(string(data), "\n") {
						if re.MatchString(line) {
							t.Errorf("%s:%d: %s\n\t%s", rel, i+1, strings.TrimSpace(line), rule.reason)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err) // a path that is gone fails here, so the rule cannot go dead
				}
			}
		})
	}
}

func allowed(rel string, allow []string) bool {
	for _, a := range allow {
		if rel == a || strings.HasSuffix(a, "/") && strings.HasPrefix(rel, a) {
			return true
		}
	}
	return false
}
