package policy

import (
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// EpsilonClock is the MVTL-ε-clock policy (Alg. 7). Each transaction
// reads its local clock t and tries to lock the whole interval
// [t−ε, t+ε] on every access; it commits at the smallest commonly locked
// timestamp and garbage collects before finishing. With ε-synchronized
// clocks this policy never aborts in serial executions (Theorem 4),
// unlike timestamp ordering, which suffers serial aborts under clock
// skew (§5.3).
type EpsilonClock struct{ shrinking }

var _ core.Policy = (*EpsilonClock)(nil)

// NewEpsilonClock returns the ε-clock policy; eps is the clock
// synchronization bound, in clock ticks.
func NewEpsilonClock(clk *clock.Process, eps int64) *EpsilonClock {
	return &EpsilonClock{newShrinking("mvtl-eps-clock", clk, eps, eps, true)}
}

// Name implements core.Policy.
func (p *EpsilonClock) Name() string { return "mvtl-eps-clock" }

// CommitTS implements core.Policy: the smallest commonly locked
// timestamp (Alg. 7 line 19), which in a serial execution is at most the
// transaction's real start time — the key to avoiding serial aborts.
func (p *EpsilonClock) CommitTS(_ *core.Txn, candidates timestamp.Set) (timestamp.Timestamp, bool) {
	return candidates.Min()
}

// CommitGC implements core.Policy (Alg. 7 line 20).
func (p *EpsilonClock) CommitGC(*core.Txn) bool { return true }
