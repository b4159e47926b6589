package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// abortError reports a policy failure as a kv.ErrAborted, keeping
// lock.ErrDeadlock victims distinguishable via kv.ErrDeadlock so
// callers can retry them immediately instead of backing off — the same
// classification the distributed client derives from
// wire.StatusDeadlock. It is one value formatted on demand: an abort is
// the contended path's common outcome, and most callers only classify
// it. The cause is rendered, not wrapped.
type abortError struct {
	op       abortOp
	key      string // of a read or write
	cause    error
	deadlock bool
}

// abortOp is the step of the transaction the policy failed in.
type abortOp uint8

const (
	abortRead abortOp = iota
	abortWrite
	abortCommitLocks
)

func abortedErr(op abortOp, key string, cause error) error {
	return &abortError{op: op, key: key, cause: cause, deadlock: errors.Is(cause, lock.ErrDeadlock)}
}

func (e *abortError) Error() string {
	op := "commit locks"
	switch e.op {
	case abortRead:
		op = fmt.Sprintf("read %q", e.key)
	case abortWrite:
		op = fmt.Sprintf("write %q", e.key)
	}
	if e.deadlock {
		return fmt.Sprintf("%s: %v (%v: %v)", op, kv.ErrAborted, kv.ErrDeadlock, e.cause)
	}
	return fmt.Sprintf("%s: %v (%v)", op, kv.ErrAborted, e.cause)
}

// Is makes the error match kv.ErrAborted, and kv.ErrDeadlock when a
// deadlock caused the abort.
func (e *abortError) Is(target error) bool {
	return target == kv.ErrAborted || e.deadlock && target == kv.ErrDeadlock
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

// footEntry is what the transaction knows about one key of its
// footprint. ks is resolved when a policy first asks for the key's state
// (Txn.Key) and nil until then: a write that locks nothing before commit
// leaves it so. read: the policy served a Read of the key. written:
// value is the buffered write.
type footEntry struct {
	key           string
	ks            *keyspace.Key
	read, written bool
	value         []byte
}

// A transaction within the inline capacities keeps all its bookkeeping
// in its one allocation; a larger one spills to the heap and, past
// footIndexAt keys, finds keys through an index.
const (
	footInline  = 8
	footIndexAt = 32
)

// Txn is an MVTL transaction. It is not safe for concurrent use by
// multiple goroutines.
type Txn struct {
	id    uint64
	db    *DB
	state txnState

	// foot is the footprint: one entry per key, in order of first use —
	// the order locks are cleaned up in. index finds a key's entry once
	// foot outgrows a linear scan. writeOrder lists the written keys in
	// order of first write.
	foot       []footEntry
	index      map[string]int32
	readset    []ReadRecord
	writeOrder []string

	footBuf       [footInline]footEntry
	readsetBuf    [8]ReadRecord
	writeOrderBuf [8]string

	// scratch is the pooled working storage, nil before the first use
	// and again once the transaction has finished.
	scratch *Scratch

	// CommitTS is the serialization timestamp, set on successful commit.
	CommitTS timestamp.Timestamp

	// PolicyState carries per-transaction policy data (timestamps,
	// timestamp sets, priority flags, ...), owned by the policy. It may
	// point into the Scratch, so it is cleared when the transaction
	// finishes.
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

// find returns the position of k's footprint entry, or -1.
func (tx *Txn) find(k string) int {
	if tx.index != nil {
		if i, ok := tx.index[k]; ok {
			return int(i)
		}
		return -1
	}
	for i := range tx.foot {
		if tx.foot[i].key == k {
			return i
		}
	}
	return -1
}

// entry returns the position of k's footprint entry, adding a blank one
// at the end on first mention.
func (tx *Txn) entry(k string) int {
	if i := tx.find(k); i >= 0 {
		return i
	}
	tx.foot = append(tx.foot, footEntry{key: k})
	switch {
	case tx.index != nil:
		tx.index[k] = int32(len(tx.foot) - 1)
	case len(tx.foot) > footIndexAt:
		tx.index = make(map[string]int32, 2*len(tx.foot))
		for i := range tx.foot {
			tx.index[tx.foot[i].key] = int32(i)
		}
	}
	return len(tx.foot) - 1
}

// Key returns the lock/version state for k, registering it as touched so
// that lock cleanup can find it. Policies must access keys only through
// this method.
func (tx *Txn) Key(k string) *keyspace.Key {
	e := &tx.foot[tx.entry(k)]
	if e.ks == nil {
		e.ks = tx.db.keys.Key(k)
	}
	return e.ks
}

// Scratch returns the transaction's working storage, taken from the
// store's pool at first use. It goes back to the pool when the
// transaction finishes: policies use it inside the operation they were
// called for and keep nothing that points into it, bar Txn.PolicyState.
func (tx *Txn) Scratch() *Scratch {
	if tx.scratch == nil {
		tx.scratch = tx.db.scratch.Get().(*Scratch)
	}
	return tx.scratch
}

// ReadSet returns the recorded reads.
func (tx *Txn) ReadSet() []ReadRecord { return tx.readset }

// WriteKeys returns the keys written, in first-write order.
func (tx *Txn) WriteKeys() []string { return tx.writeOrder }

// PendingWrite returns the buffered value for k, if the transaction
// wrote it.
func (tx *Txn) PendingWrite(k string) ([]byte, bool) {
	if i := tx.find(k); i >= 0 && tx.foot[i].written {
		return tx.foot[i].value, true
	}
	return nil, false
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
		return abortedErr(abortWrite, k, err)
	}
	e := &tx.foot[tx.entry(k)]
	if !e.written {
		e.written = true
		tx.writeOrder = append(tx.writeOrder, k)
	}
	e.value = value
	return nil
}

// Read returns the value of k within the transaction (Alg. 1 lines
// 6-10). If the transaction previously wrote k, the buffered value is
// returned. A nil value with nil error is ⊥.
func (tx *Txn) Read(ctx context.Context, k string) ([]byte, error) {
	if tx.state != stateActive {
		return nil, kv.ErrTxnDone
	}
	i := tx.entry(k)
	if e := &tx.foot[i]; e.written {
		return e.value, nil
	}
	ver, err := tx.db.policy.Read(ctx, tx, k)
	if err != nil {
		tx.abort()
		return nil, abortedErr(abortRead, k, err)
	}
	tx.foot[i].read = true
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
		return abortedErr(abortCommitLocks, "", err)
	}

	candidates := tx.candidateSet()
	if candidates.IsEmpty() {
		tx.abort()
		return fmt.Errorf("no commonly locked timestamp: %w", kv.ErrAborted)
	}
	chosen, ok := tx.db.policy.CommitTS(tx, candidates)
	if !ok || !candidates.Contains(chosen) {
		// Rendered first: abort returns the candidates' storage.
		err := fmt.Errorf("policy declined candidates %v: %w", candidates, kv.ErrAborted)
		tx.abort()
		return err
	}
	tx.CommitTS = chosen

	// Expose committed values and freeze the write locks at the commit
	// timestamp. The value is installed before the freeze so that any
	// reader observing a frozen write lock is guaranteed to find the
	// version (the Go-idiomatic counterpart of the §6 special-value
	// construction that removes the atomic block of Alg. 1).
	for _, k := range tx.writeOrder {
		e := &tx.foot[tx.find(k)]
		if err := e.ks.Versions.Install(chosen, e.value); err != nil {
			// Unreachable while the write lock at the chosen timestamp
			// is held and the purge bound trails active transactions;
			// abort defensively.
			tx.abort()
			return fmt.Errorf("install %q at %v: %w (%v)", k, chosen, kv.ErrAborted, err)
		}
		e.ks.Locks.FreezeWriteAt(tx.Owner(), chosen)
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
	tx.finish()
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
// write-locked on every key read, and write-locked on every key written
// (on a key both read and written the second requirement subsumes the
// first). T and the Owned snapshots it is cut from are the transaction's
// scratch, so neither is reallocated key by key, or transaction by
// transaction. The result is good until the transaction finishes.
func (tx *Txn) candidateSet() timestamp.Set {
	sc := tx.Scratch()
	sc.candidates.Reset(timestamp.Full)
	for i := range tx.foot {
		e := &tx.foot[i]
		if !e.read && !e.written {
			continue
		}
		e.ks.Locks.OwnedInto(tx.Owner(), &sc.readOrWrite, &sc.writeOnly)
		if e.written {
			sc.candidates.Intersect(sc.writeOnly)
		} else {
			sc.candidates.Intersect(sc.readOrWrite)
		}
		if sc.candidates.IsEmpty() {
			break
		}
	}
	return sc.candidates.Set()
}

// abort marks the transaction aborted and cleans up its locks. Policies
// that garbage collect drop every unfrozen lock; MVTO-style policies
// keep their read locks (emulating persistent read timestamps) but must
// not leave write intentions behind.
func (tx *Txn) abort() {
	tx.state = stateAborted
	all := tx.db.policy.CommitGC(tx)
	for i := range tx.foot {
		ks := tx.foot[i].ks
		if ks == nil {
			continue
		}
		if all {
			ks.Locks.ReleaseUnfrozen(tx.Owner())
		} else {
			ks.Locks.ReleaseWrites(tx.Owner())
		}
	}
	tx.finish()
}

// gc implements Alg. 1 lines 22-26 for a committed transaction: freeze
// the read locks between each version read and the commit timestamp, and
// release all unfrozen locks.
func (tx *Txn) gc() {
	for _, r := range tx.readset {
		iv := timestamp.Span(r.VersionTS.Next(), tx.CommitTS)
		tx.foot[tx.find(r.Key)].ks.Locks.FreezeReadIn(tx.Owner(), iv)
	}
	for i := range tx.foot {
		if ks := tx.foot[i].ks; ks != nil {
			ks.Locks.ReleaseUnfrozen(tx.Owner())
		}
	}
}

// finish ends the transaction's use of pooled storage once it has
// committed or aborted and cleaned up: the scratch goes back to the
// store, and the policy state, which may point into it, goes with it.
// Everything a finished transaction still answers (CommitTS, ReadSet,
// WriteKeys, PendingWrite, RestartHint) is in the Txn's own memory.
func (tx *Txn) finish() {
	tx.PolicyState = nil
	if sc := tx.scratch; sc != nil {
		tx.scratch = nil
		tx.db.scratch.Put(sc)
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
