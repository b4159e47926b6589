package policy

import (
	"context"
	"errors"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
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
	clk    *clock.Process
	delta  int64
	choice CommitChoice
	gc     bool
}

var _ core.Policy = (*TIL)(nil)

// NewTIL returns an MVTIL policy with interval width delta (in clock
// ticks). gcOnCommit enables per-commit lock garbage collection; the
// paper's MVTIL-GC additionally purges old state periodically, which is
// DB.PurgeBelow's job.
func NewTIL(clk *clock.Process, delta int64, choice CommitChoice, gcOnCommit bool) *TIL {
	return &TIL{clk: clk, delta: delta, choice: choice, gc: gcOnCommit}
}

// Why a TIL operation fails; the engine wraps them into the abort.
var (
	errTILExhausted      = errors.New("mvtil: interval exhausted")
	errTILWritesEmptied  = errors.New("mvtil: write locks exhausted the interval")
	errTILReadsUnlocked  = errors.New("mvtil: read locks unavailable")
	errTILReadEmptiedIvl = errors.New("mvtil: read shrank the interval to nothing")
)

// Name implements core.Policy.
func (p *TIL) Name() string { return "mvtil-" + p.choice.String() }

// Begin implements core.Policy: the interval is set at the first
// operation, when the transaction's clock is known.
func (p *TIL) Begin(*core.Txn) {}

// state returns the transaction's shrinking interval I.
func (p *TIL) state(tx *core.Txn) *timestamp.ShrinkingSet {
	i, first := shrinkingState(tx)
	if first {
		now := txnClock(tx, p.clk).Now()
		i.Reset(timeInterval(now.Time, now.Time+p.delta))
	}
	return i
}

// WriteLocks implements core.Policy: write-lock as much of I as
// possible without waiting, then shrink I to the acquired subset.
func (p *TIL) WriteLocks(ctx context.Context, tx *core.Txn, k string) error {
	i := p.state(tx)
	if i.IsEmpty() {
		return errTILExhausted
	}
	res, err := shrinkToWriteLocks(ctx, tx, k, i, lock.Options{Partial: true})
	if err != nil {
		return err
	}
	if max, ok := res.Denied.Max(); ok && max.After(tx.RestartHint) {
		tx.RestartHint = max
	}
	if i.IsEmpty() {
		return errTILWritesEmptied
	}
	return nil
}

// Read implements core.Policy: read the latest version below the top of
// I and read-lock the contiguous prefix available without waiting, then
// shrink I accordingly.
func (p *TIL) Read(ctx context.Context, tx *core.Txn, k string) (version.Version, error) {
	i := p.state(tx)
	if i.IsEmpty() {
		return version.Version{}, errTILExhausted
	}
	m, _ := i.Set().Max()
	v, got, err := readUpTo(ctx, tx, tx.Key(k), m, false)
	if err != nil {
		return version.Version{}, err
	}
	if got.IsEmpty() {
		// An unfrozen conflict sits right above the version: the read
		// cannot be protected anywhere inside I.
		return version.Version{}, errTILReadsUnlocked
	}
	i.IntersectInterval(timestamp.Span(v.TS.Next(), got.Hi))
	if i.IsEmpty() {
		return version.Version{}, errTILReadEmptiedIvl
	}
	return v, nil
}

// CommitLocks implements core.Policy: all locks were taken during
// execution.
func (p *TIL) CommitLocks(context.Context, *core.Txn) error { return nil }

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
