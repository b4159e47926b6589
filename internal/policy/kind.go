package policy

import (
	"fmt"
	"slices"
	"strings"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
)

// Kind names one of the policies of this package. It is the one name of
// a policy across the repository — mvtl.Algorithm and client.Mode are
// aliases of it — and the table below is the one place a policy is
// named, parsed and built. The zero value is KindTILEarly.
type Kind uint8

// The kinds, one per policy of the package doc.
const (
	KindTILEarly Kind = iota
	KindTILLate
	KindTO
	KindGhostbuster
	KindPref
	KindPrio
	KindEpsilonClock
	KindPessimistic
)

// Params are what a policy is built with. A zero field takes the default
// of the paper's evaluation.
type Params struct {
	// Delta is MVTIL's interval width Δ in clock ticks; default 5000
	// (5 ms in microsecond ticks, §8).
	Delta int64
	// Epsilon is EpsilonClock's synchronization bound ε in clock ticks;
	// default 1000.
	Epsilon int64
	// Alternatives is Pref's A(t); default {t−1 ms, t−10 ms}.
	Alternatives Alternatives
}

// kinds is the table, indexed by Kind: the printed name, the other
// spellings Parse accepts, whether the coordinator's remote backend runs
// the policy, and its constructor. Only policies that reach keys through
// the transaction's lock steps alone can run remotely; Pref cannot (it
// needs Txn.LocalKey), and the others join with their fault scenarios.
var kinds = [...]struct {
	name    string
	aliases []string
	remote  bool
	build   func(clk *clock.Process, p Params) core.Policy
}{
	KindTILEarly: {name: "mvtil-early", remote: true,
		build: func(clk *clock.Process, p Params) core.Policy { return NewTIL(clk, p.Delta, CommitEarly, true) }},
	KindTILLate: {name: "mvtil-late", remote: true,
		build: func(clk *clock.Process, p Params) core.Policy { return NewTIL(clk, p.Delta, CommitLate, true) }},
	KindTO: {name: "mvtl-to", aliases: []string{"mvto+", "mvto"}, remote: true,
		build: func(clk *clock.Process, _ Params) core.Policy { return NewTO(clk) }},
	KindGhostbuster: {name: "mvtl-ghostbuster",
		build: func(clk *clock.Process, _ Params) core.Policy { return NewGhostbuster(clk) }},
	KindPref: {name: "mvtl-pref",
		build: func(clk *clock.Process, p Params) core.Policy { return NewPref(clk, p.Alternatives) }},
	KindPrio: {name: "mvtl-prio",
		build: func(clk *clock.Process, _ Params) core.Policy { return NewPrio(clk) }},
	KindEpsilonClock: {name: "mvtl-eps-clock",
		build: func(clk *clock.Process, p Params) core.Policy { return NewEpsilonClock(clk, p.Epsilon) }},
	KindPessimistic: {name: "mvtl-pessimistic", aliases: []string{"2pl", "pessimistic"}, remote: true,
		build: func(*clock.Process, Params) core.Policy { return NewPessimistic() }},
}

// String returns the policy's printed name.
func (k Kind) String() string {
	if int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Remote reports whether the coordinator's remote backend runs the
// policy.
func (k Kind) Remote() bool { return int(k) < len(kinds) && kinds[k].remote }

// New builds the policy over clk, zero parameters taking their defaults.
// It panics if k names no policy.
func (k Kind) New(clk *clock.Process, p Params) core.Policy {
	if int(k) >= len(kinds) {
		panic(fmt.Sprintf("policy: unknown %v", k))
	}
	if p.Delta == 0 {
		p.Delta = 5000
	}
	if p.Epsilon == 0 {
		p.Epsilon = 1000
	}
	if p.Alternatives == nil {
		p.Alternatives = OffsetAlternatives(-1_000, -10_000)
	}
	return kinds[k].build(clk, p)
}

// Parse returns the kind named s: its printed name, or a spelling the
// command lines have always accepted ("mvto+" for mvtl-to, "2pl" for
// mvtl-pessimistic).
func Parse(s string) (Kind, error) {
	names := make([]string, len(kinds))
	for k, row := range kinds {
		if s == row.name || slices.Contains(row.aliases, s) {
			return Kind(k), nil
		}
		names[k] = row.name
	}
	return 0, fmt.Errorf("unknown policy %q (valid: %s)", s, strings.Join(names, ", "))
}
