package policy

import (
	"context"
	"errors"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Prio is the prioritizer policy MVTL-Prio (§5.2, Alg. 6). Transactions
// marked critical (Txn.Priority) grab locks greedily across the whole
// timeline — like pessimistic concurrency control, but without blocking
// on other transactions' locks — while normal transactions behave like
// timestamp ordering. Critical transactions always own the tail of the
// timeline above every normal transaction's timestamp, so normal
// transactions can never abort them (Theorem 3); only other critical
// transactions can.
//
// Following §5.2 (which corrects Alg. 6 on this point), both kinds of
// transaction garbage collect on commit, so no finished transaction
// leaves unfrozen locks behind.
type Prio struct {
	clk *clock.Process
}

var _ core.Policy = (*Prio)(nil)

// NewPrio returns the prioritizer policy.
func NewPrio(clk *clock.Process) *Prio { return &Prio{clk: clk} }

// Name implements core.Policy.
func (p *Prio) Name() string { return "mvtl-prio" }

// WriteLocks implements core.Policy. Critical transactions write-lock
// every timestamp they can get right now, without waiting — in
// particular the whole unlocked tail of the timeline. Normal
// transactions lock nothing until commit.
func (p *Prio) WriteLocks(ctx context.Context, tx *core.Txn, key int32) error {
	if !tx.Priority {
		return nil
	}
	res, err := tx.WriteLocks(ctx, tx.Batch(key), allWritable(), lock.Options{Partial: true})
	if err != nil {
		return err
	}
	if res[0].Got.IsEmpty() {
		return errors.New("mvtl-prio: nothing lockable")
	}
	return nil
}

// Read implements core.Policy. Critical transactions read the latest
// version and lock upward to +∞ (waiting only on unfrozen write locks,
// which are held just for the brief commit window of other
// transactions); normal transactions read at their timestamp like
// MVTL-TO.
func (p *Prio) Read(ctx context.Context, tx *core.Txn, keys []int32) ([]core.ReadResult, error) {
	upper := timestamp.Infinity
	if !tx.Priority {
		upper = startTS(tx, p.clk)
	}
	return tx.ReadLocks(ctx, keys, upper, true)
}

// CommitLocks implements core.Policy. Normal transactions write-lock
// their timestamp without waiting, as in MVTL-TO (Alg. 6 lines 23-29);
// critical transactions already hold their write locks.
func (p *Prio) CommitLocks(ctx context.Context, tx *core.Txn) error {
	if tx.Priority {
		return nil
	}
	return writeLockAt(ctx, tx, startTS(tx, p.clk), false)
}

// CommitTS implements core.Policy: critical transactions commit at the
// start of the commonly locked tail (just above every conflicting normal
// timestamp); normal ones at their timestamp (Alg. 6 lines 30-34).
func (p *Prio) CommitTS(tx *core.Txn, candidates timestamp.Set) (timestamp.Timestamp, bool) {
	if tx.Priority {
		return tailMin(candidates)
	}
	return startTS(tx, p.clk), true
}

// CommitGC implements core.Policy: both kinds garbage collect (§5.2).
func (p *Prio) CommitGC(*core.Txn) bool { return true }
