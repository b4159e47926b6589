package policy

import (
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// CommitChoice selects which end of the final interval MVTIL commits at.
type CommitChoice uint8

// Commit choices evaluated in §8: MVTIL-early picks the smallest locked
// timestamp, MVTIL-late the largest.
const (
	CommitEarly CommitChoice = iota + 1
	CommitLate
)

// String renders the choice.
func (c CommitChoice) String() string {
	switch c {
	case CommitEarly:
		return "early"
	case CommitLate:
		return "late"
	default:
		return fmt.Sprintf("choice(%d)", uint8(c))
	}
}

// TIL is MVTIL (§8), the interval-locking variant of the ε-clock
// algorithm used in the paper's evaluation: a transaction associates
// itself with the interval I = [t, t+Δ] from its local clock — no clock
// synchronization assumed — and tries to lock I on every key it
// touches, never waiting: when only a subinterval can be locked, I
// shrinks to it, reducing the locking burden on subsequent keys. The
// transaction commits at the smallest (early) or largest (late)
// timestamp of the commonly locked set.
type TIL struct {
	shrinking
	choice CommitChoice
	gc     bool
}

var _ core.Policy = (*TIL)(nil)

// NewTIL returns an MVTIL policy with interval width delta (in clock
// ticks). gcOnCommit enables per-commit lock garbage collection; the
// paper's MVTIL-GC additionally purges old state periodically, which is
// DB.PurgeBelow's job.
func NewTIL(clk *clock.Process, delta int64, choice CommitChoice, gcOnCommit bool) *TIL {
	return &TIL{shrinking: newShrinking("mvtil", clk, 0, delta, false), choice: choice, gc: gcOnCommit}
}

// Name implements core.Policy.
func (p *TIL) Name() string { return "mvtil-" + p.choice.String() }

// CommitTS implements core.Policy: the smallest or largest commonly
// locked timestamp, per the early/late variant.
func (p *TIL) CommitTS(_ *core.Txn, candidates timestamp.Set) (timestamp.Timestamp, bool) {
	if p.choice == CommitLate {
		return candidates.Max()
	}
	return candidates.Min()
}

// CommitGC implements core.Policy.
func (p *TIL) CommitGC(*core.Txn) bool { return p.gc }
