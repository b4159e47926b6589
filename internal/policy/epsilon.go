package policy

import (
	"context"
	"errors"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

// EpsilonClock is the MVTL-ε-clock policy (Alg. 7). Each transaction
// reads its local clock t and tries to lock the whole interval
// [t−ε, t+ε] on every access; it commits at the smallest commonly locked
// timestamp and garbage collects before finishing. With ε-synchronized
// clocks this policy never aborts in serial executions (Theorem 4),
// unlike timestamp ordering, which suffers serial aborts under clock
// skew (§5.3).
type EpsilonClock struct {
	clk *clock.Process
	eps int64
}

var _ core.Policy = (*EpsilonClock)(nil)

// NewEpsilonClock returns the ε-clock policy; eps is the clock
// synchronization bound, in clock ticks.
func NewEpsilonClock(clk *clock.Process, eps int64) *EpsilonClock {
	return &EpsilonClock{clk: clk, eps: eps}
}

// Why an ε-clock operation fails; the engine wraps them into the abort.
var (
	errEpsExhausted     = errors.New("mvtl-eps-clock: no lockable timestamps left")
	errEpsWritesEmptied = errors.New("mvtl-eps-clock: write locks exhausted the timestamp interval")
	errEpsReadsUnlocked = errors.New("mvtl-eps-clock: no timestamps read-lockable")
	errEpsReadEmptiedTS = errors.New("mvtl-eps-clock: read shrank the timestamp interval to nothing")
)

// Name implements core.Policy.
func (p *EpsilonClock) Name() string { return "mvtl-eps-clock" }

// Begin implements core.Policy: the timestamp set is fixed at the first
// operation, when the transaction's clock is known.
func (p *EpsilonClock) Begin(*core.Txn) {}

// state returns tx.TS, the shrinking set of timestamps the transaction
// may still commit at.
func (p *EpsilonClock) state(tx *core.Txn) *timestamp.ShrinkingSet {
	ts, first := shrinkingState(tx)
	if first {
		now := txnClock(tx, p.clk).Now()
		lo := now.Time - p.eps
		if lo < 0 {
			lo = 0
		}
		ts.Reset(timeInterval(lo, now.Time+p.eps))
	}
	return ts
}

// WriteLocks implements core.Policy (Alg. 7 lines 4-6): write-lock as
// much of tx.TS as possible, waiting on unfrozen conflicts, and shrink
// tx.TS to what was acquired.
func (p *EpsilonClock) WriteLocks(ctx context.Context, tx *core.Txn, k string) error {
	ts := p.state(tx)
	if ts.IsEmpty() {
		return errEpsExhausted
	}
	if _, err := shrinkToWriteLocks(ctx, tx, k, ts, lock.Options{Wait: true, Partial: true}); err != nil {
		return err
	}
	if ts.IsEmpty() {
		return errEpsWritesEmptied
	}
	return nil
}

// Read implements core.Policy (Alg. 7 lines 7-17).
func (p *EpsilonClock) Read(ctx context.Context, tx *core.Txn, k string) (version.Version, error) {
	ts := p.state(tx)
	if ts.IsEmpty() {
		return version.Version{}, errEpsExhausted
	}
	m, _ := ts.Set().Max()
	v, got, err := readUpTo(ctx, tx, tx.Key(k), m, true)
	if err != nil {
		return version.Version{}, err
	}
	if got.IsEmpty() {
		return version.Version{}, errEpsReadsUnlocked
	}
	ts.IntersectInterval(timestamp.Span(v.TS.Next(), got.Hi))
	if ts.IsEmpty() {
		return version.Version{}, errEpsReadEmptiedTS
	}
	return v, nil
}

// CommitLocks implements core.Policy: nothing to do (Alg. 7 line 18).
func (p *EpsilonClock) CommitLocks(context.Context, *core.Txn) error { return nil }

// CommitTS implements core.Policy: the smallest commonly locked
// timestamp (Alg. 7 line 19), which in a serial execution is at most the
// transaction's real start time — the key to avoiding serial aborts.
func (p *EpsilonClock) CommitTS(_ *core.Txn, candidates timestamp.Set) (timestamp.Timestamp, bool) {
	return candidates.Min()
}

// CommitGC implements core.Policy (Alg. 7 line 20).
func (p *EpsilonClock) CommitGC(*core.Txn) bool { return true }
