package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// abortedErr wraps a policy failure as a kv.ErrAborted, keeping
// lock.ErrDeadlock victims distinguishable via kv.ErrDeadlock so
// callers can retry them immediately instead of backing off — the same
// classification the distributed client derives from
// wire.StatusDeadlock.
func abortedErr(op string, err error) error {
	if errors.Is(err, lock.ErrDeadlock) {
		return fmt.Errorf("%s: %w (%w: %v)", op, kv.ErrAborted, kv.ErrDeadlock, err)
	}
	return fmt.Errorf("%s: %w (%v)", op, kv.ErrAborted, err)
}

// txnState tracks the lifecycle of a transaction.
type txnState uint8

const (
	stateActive txnState = iota
	stateCommitted
	stateAborted
)

// ReadRecord is one entry of the read set: the key and the timestamp of
// the version the transaction read (Alg. 1 line 9).
type ReadRecord struct {
	Key string
	// VersionTS is the timestamp tr of the version returned by the
	// read; Zero denotes the initial version ⊥.
	VersionTS timestamp.Timestamp
}

// Txn is an MVTL transaction. It is not safe for concurrent use by
// multiple goroutines.
type Txn struct {
	id    uint64
	db    *DB
	state txnState

	readset    []ReadRecord
	writes     map[string][]byte
	writeOrder []string
	// The first reads and writes live in the transaction record itself;
	// only a footprint beyond eight of either moves to the heap.
	readsetBuf    [8]ReadRecord
	writeOrderBuf [8]string

	touched map[string]*KeyState

	// CommitTS is the serialization timestamp, set on successful commit.
	CommitTS timestamp.Timestamp

	// PolicyState carries per-transaction policy data (timestamps,
	// timestamp sets, priority flags, ...), owned by the policy.
	PolicyState any

	// Priority marks the transaction as critical for priority-aware
	// policies (§5.2). It must be set before the first operation.
	Priority bool

	// Clock, when non-nil, overrides the policy's default clock for
	// this transaction. Policies read their clock lazily at the first
	// operation, so callers may set Clock right after Begin; this is
	// how tests model per-process (skewed) clocks in a single engine.
	Clock *clock.Process

	// RestartHint, when nonzero, suggests a timestamp above which a
	// retry of this transaction is likely to succeed; policies set it
	// when they observe frozen conflicts (used by MVTIL restarts, §8.1).
	RestartHint timestamp.Timestamp
}

var _ kv.Txn = (*Txn)(nil)

// ID returns the transaction identifier.
func (tx *Txn) ID() uint64 { return tx.id }

// Owner returns the transaction's lock-owner identity.
func (tx *Txn) Owner() lock.Owner { return lock.Owner(tx.id) }

// Key returns the lock/version state for k, registering it as touched so
// that lock cleanup can find it. Policies must access keys only through
// this method.
func (tx *Txn) Key(k string) *KeyState {
	ks, ok := tx.touched[k]
	if !ok {
		ks = tx.db.keyState(k)
		tx.touched[k] = ks
	}
	return ks
}

// ReadSet returns the recorded reads.
func (tx *Txn) ReadSet() []ReadRecord { return tx.readset }

// WriteKeys returns the keys written, in first-write order.
func (tx *Txn) WriteKeys() []string { return tx.writeOrder }

// PendingWrite returns the buffered value for k, if the transaction
// wrote it.
func (tx *Txn) PendingWrite(k string) ([]byte, bool) {
	v, ok := tx.writes[k]
	return v, ok
}

// Aborted reports whether the transaction has aborted.
func (tx *Txn) Aborted() bool { return tx.state == stateAborted }

// Committed reports whether the transaction has committed.
func (tx *Txn) Committed() bool { return tx.state == stateCommitted }

// Write buffers value for key k after acquiring the policy's write-time
// locks (Alg. 1 lines 3-5). The write becomes visible only at commit.
func (tx *Txn) Write(ctx context.Context, k string, value []byte) error {
	if tx.state != stateActive {
		return kv.ErrTxnDone
	}
	if err := tx.db.policy.WriteLocks(ctx, tx, k); err != nil {
		tx.abort()
		return abortedErr(fmt.Sprintf("write %q", k), err)
	}
	if _, dup := tx.writes[k]; !dup {
		tx.writeOrder = append(tx.writeOrder, k)
	}
	tx.writes[k] = value
	return nil
}

// Read returns the value of k within the transaction (Alg. 1 lines
// 6-10). If the transaction previously wrote k, the buffered value is
// returned. A nil value with nil error is ⊥.
func (tx *Txn) Read(ctx context.Context, k string) ([]byte, error) {
	if tx.state != stateActive {
		return nil, kv.ErrTxnDone
	}
	if v, ok := tx.writes[k]; ok {
		return v, nil
	}
	ver, err := tx.db.policy.Read(ctx, tx, k)
	if err != nil {
		tx.abort()
		return nil, abortedErr(fmt.Sprintf("read %q", k), err)
	}
	tx.readset = append(tx.readset, ReadRecord{Key: k, VersionTS: ver.TS})
	return ver.Value, nil
}

// Commit tries to commit the transaction (Alg. 1 lines 11-21): it
// acquires the policy's commit-time locks, computes the candidate set T
// of timestamps locked across the whole footprint, lets the policy pick
// one, freezes the write locks there and exposes the written values.
func (tx *Txn) Commit(ctx context.Context) error {
	if tx.state != stateActive {
		return kv.ErrTxnDone
	}
	if err := tx.db.policy.CommitLocks(ctx, tx); err != nil {
		tx.abort()
		return abortedErr("commit locks", err)
	}

	candidates := tx.candidateSet()
	if candidates.IsEmpty() {
		tx.abort()
		return fmt.Errorf("no commonly locked timestamp: %w", kv.ErrAborted)
	}
	chosen, ok := tx.db.policy.CommitTS(tx, candidates)
	if !ok || !candidates.Contains(chosen) {
		tx.abort()
		return fmt.Errorf("policy declined candidates %v: %w", candidates, kv.ErrAborted)
	}
	tx.CommitTS = chosen

	// Expose committed values and freeze the write locks at the commit
	// timestamp. The value is installed before the freeze so that any
	// reader observing a frozen write lock is guaranteed to find the
	// version (the Go-idiomatic counterpart of the §6 special-value
	// construction that removes the atomic block of Alg. 1).
	for _, k := range tx.writeOrder {
		ks := tx.touched[k]
		if err := ks.Versions.Install(chosen, tx.writes[k]); err != nil {
			// Unreachable while the write lock at the chosen timestamp
			// is held and the purge bound trails active transactions;
			// abort defensively.
			tx.abort()
			return fmt.Errorf("install %q at %v: %w (%v)", k, chosen, kv.ErrAborted, err)
		}
		ks.Locks.FreezeWriteAt(tx.Owner(), chosen)
	}
	tx.state = stateCommitted

	if rec := tx.db.opts.Recorder; rec != nil {
		rec.Record(history.Commit{
			ID:        tx.id,
			CommitTS:  chosen,
			Reads:     toHistoryReads(tx.readset),
			WriteKeys: append([]string(nil), tx.writeOrder...),
		})
	}

	if tx.db.policy.CommitGC(tx) {
		tx.gc()
	}
	return nil
}

// Abort discards the transaction, releasing locks according to the
// policy's garbage-collection choice. Aborting a finished transaction is
// a no-op.
func (tx *Txn) Abort(context.Context) error {
	if tx.state != stateActive {
		return nil
	}
	tx.abort()
	return nil
}

// candidateSet computes T (Alg. 1 line 13): the timestamps read- or
// write-locked on every key read, and write-locked on every key written.
// One scratch pair of Owned snapshots is threaded through the whole
// footprint, so per-key snapshot storage is reused instead of
// reallocated key by key.
func (tx *Txn) candidateSet() timestamp.Set {
	candidates := timestamp.NewSet(timestamp.Full)

	var readOrWrite, writeOnly timestamp.Set
	for i, r := range tx.readset {
		if _, alsoWritten := tx.writes[r.Key]; alsoWritten {
			continue // the write-lock requirement below subsumes this key
		}
		if i < dedupeReads && tx.readBefore(i) {
			continue
		}
		tx.touched[r.Key].Locks.OwnedInto(tx.Owner(), &readOrWrite, &writeOnly)
		candidates.IntersectInto(readOrWrite)
		if candidates.IsEmpty() {
			return candidates
		}
	}
	for _, k := range tx.writeOrder {
		tx.touched[k].Locks.OwnedInto(tx.Owner(), &readOrWrite, &writeOnly)
		candidates.IntersectInto(writeOnly)
		if candidates.IsEmpty() {
			return candidates
		}
	}
	return candidates
}

// dedupeReads bounds the duplicate check of candidateSet. Intersecting
// one key's locks twice changes nothing, so skipping a repeated key only
// saves work — and past this many reads the quadratic scan would cost
// more than it saves.
const dedupeReads = 64

// readBefore reports whether the key of readset[i] was already read by an
// earlier entry.
func (tx *Txn) readBefore(i int) bool {
	for _, r := range tx.readset[:i] {
		if r.Key == tx.readset[i].Key {
			return true
		}
	}
	return false
}

// abort marks the transaction aborted and cleans up its locks. Policies
// that garbage collect drop every unfrozen lock; MVTO-style policies
// keep their read locks (emulating persistent read timestamps) but must
// not leave write intentions behind.
func (tx *Txn) abort() {
	tx.state = stateAborted
	if tx.db.policy.CommitGC(tx) {
		for _, ks := range tx.touched {
			ks.Locks.ReleaseUnfrozen(tx.Owner())
		}
		return
	}
	for _, ks := range tx.touched {
		ks.Locks.ReleaseWrites(tx.Owner())
	}
}

// gc implements Alg. 1 lines 22-26 for a committed transaction: freeze
// the read locks between each version read and the commit timestamp, and
// release all unfrozen locks.
func (tx *Txn) gc() {
	for _, r := range tx.readset {
		iv := timestamp.Span(r.VersionTS.Next(), tx.CommitTS)
		tx.touched[r.Key].Locks.FreezeReadIn(tx.Owner(), iv)
	}
	for _, ks := range tx.touched {
		ks.Locks.ReleaseUnfrozen(tx.Owner())
	}
}

// toHistoryReads converts the read set for the history recorder.
func toHistoryReads(rs []ReadRecord) []history.Read {
	out := make([]history.Read, len(rs))
	for i, r := range rs {
		out[i] = history.Read{Key: r.Key, VersionTS: r.VersionTS}
	}
	return out
}
