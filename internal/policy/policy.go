// Package policy provides the specialized MVTL algorithms of §5 of the
// paper as policies for the generic engine in internal/core:
//
//   - TO          — MVTL-TO, behaviourally equivalent to MVTO+ (Alg. 8)
//   - Ghostbuster — MVTL-TO plus garbage collection, immune to ghost
//     aborts (Alg. 10)
//   - Pref        — the preferential algorithm with alternative
//     timestamps (Alg. 3/5)
//   - Prio        — the prioritizer: critical transactions are never
//     aborted by normal ones (Alg. 6)
//   - EpsilonClock — immune to serial aborts under ε-synchronized
//     clocks (Alg. 7)
//   - Pessimistic — behaviourally equivalent to pessimistic two-phase
//     locking (Alg. 9)
//   - TIL         — the interval-locking variant evaluated in §8
//     (MVTIL-early / MVTIL-late)
//
// Every policy is a safe specialization of the generic algorithm
// (Theorem 1); they differ in liveness: which workloads abort, block, or
// deadlock. They reach keys through the transaction's lock steps, so
// each governs the in-process store and, as a client.Mode, the
// coordinator alike — bar Pref, which needs the store's key state.
package policy

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// txnClock returns the timestamp source for a transaction: its override
// if set, the policy default otherwise.
func txnClock(tx *core.Txn, def *clock.Process) *clock.Process {
	if tx.Clock != nil {
		return tx.Clock
	}
	return def
}

// timeInterval returns the interval covering all timestamps whose time
// component lies in [lo, hi], across every process id, clamped to stay
// strictly above Zero (the initial-version timestamp is never lockable
// for writing).
func timeInterval(lo, hi int64) timestamp.Interval {
	l := timestamp.New(lo, math.MinInt32)
	if !l.After(timestamp.Zero) {
		l = timestamp.Zero.Next()
	}
	return timestamp.Span(l, timestamp.New(hi, math.MaxInt32))
}

// pooledState returns the transaction's policy state of type T, and
// whether this is the transaction's first use of it — when the caller
// must initialize it, whatever an earlier transaction left there. The
// state is part of the transaction's pooled scratch, so storage it has
// grown (a shrinking set's spill under contention) is reused from
// transaction to transaction.
func pooledState[T any](tx *core.Txn) (st *T, first bool) {
	if st, ok := tx.PolicyState.(*T); ok {
		return st, false
	}
	sc := tx.Scratch()
	st, ok := sc.Policy.(*T)
	if !ok {
		st = new(T)
		sc.Policy = st
	}
	tx.PolicyState = st
	return st, true
}

// startTS returns the timestamp of a timestamp-ordered transaction,
// drawn from its clock at its first operation.
func startTS(tx *core.Txn, def *clock.Process) timestamp.Timestamp {
	ts, first := pooledState[timestamp.Timestamp](tx)
	if first {
		*ts = txnClock(tx, def).Now()
	}
	return *ts
}

// shrinking is what the interval policies are made of — MVTIL (§8) is
// the no-wait variant of the ε-clock algorithm (Alg. 7): a transaction
// keeps the set of timestamps it may still commit at (TIL's I, ε-clock's
// TS) — at its first operation, those within [now−before, now+after] of
// its clock — tries to lock all of it on every key it touches, and
// shrinks it to what it got. The set is the transaction's pooled state.
type shrinking struct {
	clk           *clock.Process
	before, after int64
	// wait makes lock requests park on unfrozen conflicts.
	wait bool
	// Why an operation fails; the engine wraps them into the abort.
	exhausted, writesEmptied, readsUnlocked, readEmptied error
}

func newShrinking(name string, clk *clock.Process, before, after int64, wait bool) shrinking {
	return shrinking{
		clk: clk, before: before, after: after, wait: wait,
		exhausted:     errors.New(name + ": no lockable timestamps left"),
		writesEmptied: errors.New(name + ": write locks exhausted the interval"),
		readsUnlocked: errors.New(name + ": read locks unavailable"),
		readEmptied:   errors.New(name + ": read shrank the interval to nothing"),
	}
}

// set returns the transaction's shrinking set.
func (p *shrinking) set(tx *core.Txn) *timestamp.ShrinkingSet {
	set, first := pooledState[timestamp.ShrinkingSet](tx)
	if first {
		now := txnClock(tx, p.clk).Now().Time
		set.Reset(timeInterval(now-p.before, now+p.after))
	}
	return set
}

// WriteLocks implements core.Policy (Alg. 7 lines 4-6): write-lock as
// much of the set on the key as can be had, and shrink the set to it.
func (p *shrinking) WriteLocks(ctx context.Context, tx *core.Txn, key int32) error {
	set := p.set(tx)
	if set.IsEmpty() {
		return p.exhausted
	}
	res, err := tx.WriteLocks(ctx, tx.Batch(key), set.Set(), lock.Options{Wait: p.wait, Partial: true})
	if err != nil {
		return err
	}
	if max, ok := res[0].Denied.Max(); ok && max.After(tx.RestartHint) {
		tx.RestartHint = max
	}
	set.Swap(&res[0].Got) // the grant is a subset of set: adopt it, storage and all
	if set.IsEmpty() {
		return p.writesEmptied
	}
	return nil
}

// Read implements core.Policy (Alg. 7 lines 7-17): read every key of the
// batch below the top of the set, read-locking the contiguous prefix to
// be had, and shrink the set to the locked ranges.
func (p *shrinking) Read(ctx context.Context, tx *core.Txn, keys []int32) ([]core.ReadResult, error) {
	set := p.set(tx)
	top, ok := set.Set().Max()
	if !ok {
		return nil, p.exhausted
	}
	res, err := tx.ReadLocks(ctx, keys, top, p.wait)
	if err != nil {
		return nil, err
	}
	for i := range res {
		if res[i].Got.IsEmpty() {
			// An unfrozen conflict sits right above the version: the
			// read cannot be protected anywhere inside set.
			return nil, p.readsUnlocked
		}
		set.IntersectInterval(timestamp.Span(res[i].Version.TS.Next(), res[i].Got.Hi))
		if set.IsEmpty() {
			return nil, p.readEmptied
		}
	}
	return res, nil
}

// CommitLocks implements core.Policy: all locks were taken during
// execution (Alg. 7 line 18).
func (p *shrinking) CommitLocks(context.Context, *core.Txn) error { return nil }

// writeLockAt write-locks exactly ts on the whole write set as one
// batch, all or nothing, for the policies that lock their writes only at
// commit.
func writeLockAt(ctx context.Context, tx *core.Txn, ts timestamp.Timestamp, wait bool) error {
	writes := tx.Writes()
	if len(writes) == 0 {
		return nil
	}
	if _, err := tx.WriteLocks(ctx, writes, pointSet(ts), lock.Options{Wait: wait}); err != nil {
		return fmt.Errorf("write-lock at %v: %w", ts, err)
	}
	return nil
}

// pointSet returns the one-timestamp set {t}.
func pointSet(t timestamp.Timestamp) timestamp.Set {
	return timestamp.NewSet(timestamp.Point(t))
}

// allWritable is the set of every timestamp a write may lock: the whole
// timeline except Zero, which permanently holds the initial version ⊥.
func allWritable() timestamp.Set {
	return timestamp.NewSet(timestamp.Span(timestamp.Zero.Next(), timestamp.Infinity))
}

// tailMin returns the smallest timestamp of the last (highest) interval
// of the candidate set — the start of the commonly locked timeline tail.
// Pessimistic-style policies commit there: just above every version
// committed and every timestamp read on the keys they touched, which
// reproduces 2PL's real-time serialization order.
func tailMin(candidates timestamp.Set) (timestamp.Timestamp, bool) {
	n := candidates.NumIntervals()
	if n == 0 {
		return timestamp.Timestamp{}, false
	}
	return candidates.At(n - 1).Lo, true
}
