package policy

import (
	"context"
	"errors"

	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Pessimistic is the MVTL-Pessimistic policy (Alg. 9), which emulates
// pessimistic (two-phase-locking) concurrency control inside MVTL
// (Theorem 6): writes lock every timestamp up to +∞, reads lock from the
// latest version to +∞, both waiting on unfrozen conflicts. Because +∞
// can only be held by one writer (or the readers) of a key at a time,
// ownership of the timeline tail is exactly an object lock. Commits pick
// the smallest commonly locked timestamp and garbage collect, releasing
// the tail for the next transaction.
//
// Like any pessimistic scheme it can deadlock; bound transactions with a
// context deadline to convert deadlocks into aborts.
type Pessimistic struct{}

var _ core.Policy = Pessimistic{}

// NewPessimistic returns the pessimistic policy.
func NewPessimistic() Pessimistic { return Pessimistic{} }

var errTailNotAcquired = errors.New("mvtl-pessimistic: tail not acquired")

// WriteLocks implements core.Policy (Alg. 9 lines 1-3): write-lock all
// timestamps, waiting on unfrozen conflicts and skipping frozen history.
func (Pessimistic) WriteLocks(ctx context.Context, tx *core.Txn, key int32) error {
	res, err := tx.WriteLocks(ctx, tx.Batch(key), allWritable(), lock.Options{Wait: true, Partial: true})
	if err != nil {
		return err
	}
	if !res[0].Got.Contains(timestamp.Infinity) {
		// Frozen locks can exclude finite prefixes but never the tail;
		// failing to get +∞ means another writer raced us.
		return errTailNotAcquired
	}
	return nil
}

// Read implements core.Policy (Alg. 9 lines 4-11): read the latest
// version and read-lock from just above it to +∞.
func (Pessimistic) Read(ctx context.Context, tx *core.Txn, keys []int32) ([]core.ReadResult, error) {
	return tx.ReadLocks(ctx, keys, timestamp.Infinity, true)
}

// CommitLocks implements core.Policy: nothing to acquire at commit.
func (Pessimistic) CommitLocks(context.Context, *core.Txn) error { return nil }

// CommitTS implements core.Policy: the smallest timestamp of the
// timeline tail (Alg. 9 line 13 under the downward lock scan, which
// stops at frozen history) — one past the latest committed or read data
// on every touched key, mirroring 2PL's real-time ordering.
func (Pessimistic) CommitTS(_ *core.Txn, candidates timestamp.Set) (timestamp.Timestamp, bool) {
	return tailMin(candidates)
}

// CommitGC implements core.Policy: always garbage collect, releasing the
// timeline tail so the next transaction can lock it (Alg. 9 line 14).
func (Pessimistic) CommitGC(*core.Txn) bool { return true }
