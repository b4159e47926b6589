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
// deadlock.
package policy

import (
	"context"
	"fmt"
	"math"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
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

// readUpTo is the MVTO-style read shared by most policies (Alg. 8 lines
// 4-11 and its variants): the kernel's read step below upper, repeated
// while a frozen write lock reveals that a newer version committed in
// between (the repeat loop of Alg. 8). When wait is set each pass blocks
// on unfrozen write locks (bounded by ctx); otherwise it takes the
// contiguous prefix it can get.
//
// It returns the version read and the read-locked interval (which may be
// a strict prefix of [version.TS+1, upper] in no-wait mode, and may be
// empty).
func readUpTo(ctx context.Context, tx *core.Txn, ks *keyspace.Key, upper timestamp.Timestamp, wait bool) (version.Version, timestamp.Interval, error) {
	for {
		if err := ctx.Err(); err != nil {
			return version.Version{}, timestamp.Empty, err
		}
		v, got, frozenAt, again, err := ks.ReadStep(ctx, tx.Owner(), upper, wait)
		if frozenAt.After(tx.RestartHint) {
			tx.RestartHint = frozenAt
		}
		if !again {
			return v, got, err
		}
	}
}

// shrinkingState returns the shrinking timestamp set of an interval
// policy's transaction (TIL's I, ε-clock's TS), and whether this is the
// transaction's first use of it — when the caller must Reset it to the
// transaction's interval. The set is part of the transaction's pooled
// scratch, so the storage it spills into under contention is reused from
// transaction to transaction.
func shrinkingState(tx *core.Txn) (set *timestamp.ShrinkingSet, first bool) {
	if set, ok := tx.PolicyState.(*timestamp.ShrinkingSet); ok {
		return set, false
	}
	sc := tx.Scratch()
	set, ok := sc.Policy.(*timestamp.ShrinkingSet)
	if !ok {
		set = new(timestamp.ShrinkingSet)
		sc.Policy = set
	}
	tx.PolicyState = set
	return set, true
}

// shrinkToWriteLocks write-locks as much of set on k as opts allow and
// shrinks set to what was acquired. The result, good until the
// transaction's next write, says what was denied.
func shrinkToWriteLocks(ctx context.Context, tx *core.Txn, k string, set *timestamp.ShrinkingSet, opts lock.Options) (*lock.WriteResult, error) {
	res := &tx.Scratch().Write
	if err := tx.Key(k).Locks.AcquireWriteInto(ctx, tx.Owner(), set.Set(), opts, res); err != nil {
		return nil, fmt.Errorf("write-lock %q: %w", k, err)
	}
	set.Swap(&res.Got)
	return res, nil
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
