package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// abortError reports a failed step as a kv.ErrAborted, keeping deadlock
// victims distinguishable via kv.ErrDeadlock so callers can retry them
// immediately instead of backing off. It is one value formatted on
// demand: an abort is the contended path's common outcome, and most
// callers only classify it. The cause is wrapped: a remote backend's
// transport error or fenced route decides how the caller retries.
//
// Whether a deadlock caused the abort is asked of the cause on demand,
// not cached, so that the error stays in the 48-byte size class.
type abortError struct {
	op, key string // the step that failed; the key of a one-key step
	cause   error
}

func abortedErr(op, key string, cause error) error {
	return &abortError{op: op, key: key, cause: cause}
}

// deadlock reports whether a deadlock caused the abort.
func (e *abortError) deadlock() bool { return errors.Is(e.cause, lock.ErrDeadlock) }

func (e *abortError) Error() string {
	op := e.op
	if e.key != "" {
		op = fmt.Sprintf("%s %q", e.op, e.key)
	}
	if e.deadlock() {
		return fmt.Sprintf("%s: %v (%v: %v)", op, kv.ErrAborted, kv.ErrDeadlock, e.cause)
	}
	return fmt.Sprintf("%s: %v (%v)", op, kv.ErrAborted, e.cause)
}

// Is makes the error match kv.ErrAborted, and kv.ErrDeadlock when a
// deadlock caused the abort.
func (e *abortError) Is(target error) bool {
	return target == kv.ErrAborted || target == kv.ErrDeadlock && e.deadlock()
}

// Unwrap returns the failure that aborted the transaction.
func (e *abortError) Unwrap() error { return e.cause }

// txnState tracks the lifecycle of a transaction.
type txnState uint8

const (
	stateActive txnState = iota
	stateCommitted
	stateAborted
	stateUncertain // the commit proposal's answer was lost (Uncertain)
)

// footEntry is what the transaction knows about one key of its
// footprint (Scratch.foot). read: the policy served a Read of the key,
// which returned the version at readVer (every Read of a key returns the
// same one: the first leaves read locks from it upward). written: value
// is the buffered write; until the first Write's write-time locks are
// held, value is only its argument on the way to the backend. ks is the
// local backend's handle on the key, nil until it first touches it; any
// other backend keeps what it knows per key in Scratch.Backend, by
// position.
type footEntry struct {
	key           string
	ks            *keyspace.Key
	read, written bool
	readVer       timestamp.Timestamp
	value         []byte
}

// footIndexAt is the footprint size past which a transaction (a 100-key
// preload) finds its keys through an index rather than by a scan.
const footIndexAt = 32

// Txn is an MVTL transaction (Alg. 1). It is not safe for concurrent use
// by multiple goroutines.
//
// The Txn holds the transaction's identity, its settings and what a
// finished transaction still answers (its outcome and CommitTS): 48
// bytes, the one allocation of a Begin. Everything else has one home
// elsewhere. The backend is the engine's. The footprint, the policy's
// state and the clock override are working state: they live in the
// pooled Scratch, taken at first use and handed back, emptied, when the
// transaction finishes.
type Txn struct {
	id    uint64
	eng   *Engine
	state txnState

	// Priority marks the transaction as critical for priority-aware
	// policies (§5.2). It must be set before the first operation.
	Priority bool

	// readOnly makes Write fail with ErrReadOnly (SetReadOnly).
	readOnly bool

	// scratch is the pooled working storage, the footprint included: nil
	// before the first use and again once the transaction has finished.
	scratch *Scratch

	// CommitTS is the serialization timestamp: set on successful commit,
	// and to the proposed timestamp when the outcome is uncertain.
	CommitTS timestamp.Timestamp
}

// ErrReadOnly is Write's refusal in a transaction marked read-only. The
// transaction stays active: what it read still commits.
var ErrReadOnly = errors.New("transaction is read-only")

var (
	_ kv.Txn         = (*Txn)(nil)
	_ kv.MultiGetter = (*Txn)(nil)
)

// ID returns the transaction identifier.
func (tx *Txn) ID() uint64 { return tx.id }

// Owner returns the transaction's lock-owner identity.
func (tx *Txn) Owner() lock.Owner { return lock.Owner(tx.id) }

// SetReadOnly marks the transaction read-only: every later Write fails
// with ErrReadOnly.
func (tx *Txn) SetReadOnly() { tx.readOnly = true }

// SetClock overrides the policy's default clock for this transaction,
// which is how tests model per-process (skewed) clocks in a single
// engine. Policies read their clock lazily at the first operation, so
// it may be set any time before that. The override rides the scratch,
// and goes with it when the transaction finishes: on a finished
// transaction SetClock does nothing.
func (tx *Txn) SetClock(c *clock.Process) {
	if tx.state == stateActive {
		tx.Scratch().clock = c
	}
}

// entry returns the position of k's footprint entry, adding a blank one
// at the end on first mention.
func (tx *Txn) entry(k string) int {
	sc := tx.Scratch()
	if len(sc.foot) > footIndexAt {
		if i, ok := sc.index[k]; ok {
			return int(i)
		}
	} else {
		for i := range sc.foot {
			if sc.foot[i].key == k {
				return i
			}
		}
	}
	sc.foot = append(sc.foot, footEntry{key: k})
	n := len(sc.foot)
	switch {
	case n > footIndexAt+1:
		sc.index[k] = int32(n - 1)
	case n == footIndexAt+1:
		if sc.index == nil {
			sc.index = make(map[string]int32, 2*n)
		}
		for i := range sc.foot {
			sc.index[sc.foot[i].key] = int32(i)
		}
	}
	return n - 1
}

// footprint returns the footprint's entries: none before the first key,
// and none once the transaction has finished.
func (tx *Txn) footprint() []footEntry {
	if tx.scratch == nil {
		return nil
	}
	return tx.scratch.foot
}

// Len returns the number of keys in the footprint. Positions below it
// name its keys, in order of first use, for policies and backends. A
// finished transaction's footprint is empty.
func (tx *Txn) Len() int { return len(tx.footprint()) }

// KeyName returns the key at position i.
func (tx *Txn) KeyName(i int32) string { return tx.scratch.foot[i].key }

// ReadOf reports whether a Read of the key at position i was served,
// and the timestamp of the version it returned.
func (tx *Txn) ReadOf(i int32) (timestamp.Timestamp, bool) {
	e := &tx.scratch.foot[i]
	return e.readVer, e.read
}

// WriteOf returns the value last passed to Write for the key at
// position i, and whether that write is buffered — it is not while its
// write-time locks are being acquired.
func (tx *Txn) WriteOf(i int32) ([]byte, bool) {
	e := &tx.scratch.foot[i]
	return e.value, e.written
}

// LocalKey returns the in-process store's lock table, versions
// included, for the key at position i, for a policy that needs a lock operation
// the shared steps do not offer. Such a policy runs on the in-process
// store only: over any other backend LocalKey panics.
func (tx *Txn) LocalKey(i int32) *keyspace.Key { return tx.eng.backend.(*DB).key(tx, i) }

// Scratch returns the transaction's working storage, its footprint
// included, taken from the engine's pool at first use. It goes back to
// the pool when the transaction finishes: policies and backends keep
// nothing that points into it, bar what they keep in it (Scratch.Policy,
// Scratch.Backend).
func (tx *Txn) Scratch() *Scratch {
	if tx.scratch == nil {
		tx.scratch = tx.eng.scratch.Get().(*Scratch)
	}
	return tx.scratch
}

// Batch returns the given positions as a batch for the lock steps. It is
// the transaction's scratch: good until the next batch is built.
func (tx *Txn) Batch(keys ...int32) []int32 {
	sc := tx.Scratch()
	sc.keys = append(sc.keys[:0], keys...)
	return sc.keys
}

// Writes returns the written keys, in first-write order, as a Batch.
func (tx *Txn) Writes() []int32 { return tx.Batch(tx.Scratch().writeOrder...) }

// ReadLocks runs the read step on a batch (Backend.ReadLocks). The
// results, aligned with keys as the step leaves it, are scratch: good
// until the next ReadLocks.
func (tx *Txn) ReadLocks(ctx context.Context, keys []int32, upper timestamp.Timestamp, wait bool) ([]ReadResult, error) {
	sc := tx.Scratch()
	sc.reads = slices.Grow(sc.reads[:0], len(keys))[:len(keys)]
	clear(sc.reads)
	err := tx.eng.backend.ReadLocks(ctx, tx, keys, upper, wait, sc.reads)
	return sc.reads, err
}

// WriteLocks write-locks set on a batch as opts allow
// (Backend.WriteLocks). The results, aligned with keys as the step
// leaves it, are scratch: good until the next WriteLocks, and set must
// not share storage with them.
func (tx *Txn) WriteLocks(ctx context.Context, keys []int32, set timestamp.Set, opts lock.Options) ([]lock.WriteResult, error) {
	sc := tx.Scratch()
	sc.writes = slices.Grow(sc.writes[:0], len(keys))[:len(keys)]
	err := tx.eng.backend.WriteLocks(ctx, tx, keys, set, opts, sc.writes)
	return sc.writes, err
}

// ReadSet returns the keys read, each with the timestamp of the version
// it returned (Alg. 1 line 9; Zero denotes ⊥). It is empty once the
// transaction has finished.
func (tx *Txn) ReadSet() []history.Read {
	var reads []history.Read
	foot := tx.footprint()
	for i := range foot {
		if e := &foot[i]; e.read {
			reads = append(reads, history.Read{Key: e.key, VersionTS: e.readVer})
		}
	}
	return reads
}

// WriteKeys returns the keys written, in first-write order. It is empty
// once the transaction has finished.
func (tx *Txn) WriteKeys() []string {
	sc := tx.scratch
	if sc == nil {
		return nil
	}
	keys := make([]string, len(sc.writeOrder))
	for i, w := range sc.writeOrder {
		keys[i] = sc.foot[w].key
	}
	return keys
}

// Aborted reports whether the transaction has aborted.
func (tx *Txn) Aborted() bool { return tx.state == stateAborted }

// Committed reports whether the transaction has committed.
func (tx *Txn) Committed() bool { return tx.state == stateCommitted }

// Write buffers value for key k after acquiring the policy's write-time
// locks (Alg. 1 lines 3-5). The write becomes visible only at commit. A
// read-only transaction refuses it with ErrReadOnly, and stays active.
func (tx *Txn) Write(ctx context.Context, k string, value []byte) error {
	if tx.readOnly {
		return ErrReadOnly
	}
	if tx.state != stateActive {
		return kv.ErrTxnDone
	}
	i := tx.entry(k)
	tx.scratch.foot[i].value = value
	if err := tx.eng.policy.WriteLocks(ctx, tx, int32(i)); err != nil {
		tx.abort(ctx)
		return abortedErr("write", k, err)
	}
	if sc := tx.scratch; !sc.foot[i].written {
		sc.foot[i].written = true
		sc.writeOrder = append(sc.writeOrder, int32(i))
	}
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
	if e := &tx.scratch.foot[i]; e.written {
		return e.value, nil
	}
	res, err := tx.eng.policy.Read(ctx, tx, tx.Batch(int32(i)))
	if err != nil {
		tx.abort(ctx)
		return nil, abortedErr("read", k, err)
	}
	e := &tx.scratch.foot[i]
	e.read, e.readVer = true, res[0].Version.TS
	return res[0].Version.Value, nil
}

// GetMulti implements kv.MultiGetter: it reads a static set of keys as
// one batch — which a remote backend turns into one read-lock request
// per server, in parallel: O(servers) round trips instead of O(keys) —
// under the transaction's bound at call time. Under MVTIL it may so pick
// a newer version than a sequential Read loop, whose interval shrinks
// between reads, and abort where the loop would have settled for an
// older one. Duplicate keys are read once, written keys come from the
// write buffer, and any key's failure aborts the transaction. The map is
// the scratch's, lent as the values are (kv.MultiGetter): the next
// GetMulti refills it, and the transaction's end empties it.
func (tx *Txn) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if tx.state != stateActive {
		return nil, kv.ErrTxnDone
	}
	sc := tx.Scratch()
	if sc.multi == nil {
		sc.multi = make(map[string][]byte, len(keys))
	}
	out := sc.multi
	clear(out)
	sc.keys = sc.keys[:0]
	for _, k := range keys {
		if _, dup := out[k]; dup {
			continue
		}
		i := tx.entry(k)
		out[k] = nil // claims the key; a read fills it below
		if e := &sc.foot[i]; e.written {
			out[k] = e.value
		} else {
			sc.keys = append(sc.keys, int32(i))
		}
	}
	batch := sc.keys
	if len(batch) == 0 {
		return out, nil
	}
	res, err := tx.eng.policy.Read(ctx, tx, batch)
	if err != nil {
		tx.abort(ctx)
		return nil, abortedErr("read batch", "", err)
	}
	for j, i := range batch {
		e := &sc.foot[i]
		e.read, e.readVer = true, res[j].Version.TS
		out[e.key] = res[j].Version.Value
	}
	return out, nil
}

// Commit tries to commit the transaction (Alg. 1 lines 11-21): it
// acquires the policy's commit-time locks, computes the candidate set T
// of timestamps locked across the whole footprint, lets the policy pick
// one, and has the backend commit there, which freezes the write locks
// and so exposes the written values.
func (tx *Txn) Commit(ctx context.Context) error {
	if tx.state != stateActive {
		return kv.ErrTxnDone
	}
	policy := tx.eng.policy
	if err := policy.CommitLocks(ctx, tx); err != nil {
		tx.abort(ctx)
		return abortedErr("commit locks", "", err)
	}

	// T and the sets it is cut from are the transaction's scratch, so
	// neither is reallocated key by key, or transaction by transaction.
	t := &tx.Scratch().candidates
	t.Reset(timestamp.Full)
	tx.eng.backend.Candidates(tx, t)
	candidates := t.Set()
	if candidates.IsEmpty() {
		tx.abort(ctx)
		return fmt.Errorf("no commonly locked timestamp: %w", kv.ErrAborted)
	}
	chosen, ok := policy.CommitTS(tx, candidates)
	if !ok || !candidates.Contains(chosen) {
		// Rendered first: abort returns the candidates' storage.
		err := fmt.Errorf("policy declined candidates %v: %w", candidates, kv.ErrAborted)
		tx.abort(ctx)
		return err
	}

	// Garbage collection (Alg. 1 lines 22-26) also freezes the read
	// locks up to the commit timestamp and releases everything unfrozen.
	outcome, err := tx.eng.backend.Commit(ctx, tx, chosen, policy.CommitGC(tx))
	switch outcome {
	case Aborted:
		tx.abort(ctx)
		return abortedErr("decide", "", err)
	case Uncertain:
		// The commitment object may have decided commit: reporting an
		// abort would be a lie, and releasing locks or proposing abort
		// could fight a decided commit. The servers' suspicion path
		// resolves the outcome and cleans up either way (Lemma 4); the
		// checker resolves the recorded "maybe" from observation.
		tx.CommitTS = chosen
		tx.state = stateUncertain
		tx.record(true)
		tx.finish()
		return fmt.Errorf("%w (%w)", kv.ErrUncertain, err)
	}
	tx.CommitTS = chosen
	tx.state = stateCommitted
	tx.record(false)
	tx.finish()
	return nil
}

// record hands the footprint to the history recorder, when there is one:
// as a commit at CommitTS, or as a "maybe" there.
func (tx *Txn) record(maybe bool) {
	rec := tx.eng.opts.Recorder
	if rec == nil {
		return
	}
	rec.Record(history.Commit{ID: tx.id, CommitTS: tx.CommitTS, Reads: tx.ReadSet(), WriteKeys: tx.WriteKeys(), Maybe: maybe})
}

// Abort discards the transaction, releasing locks according to the
// policy's garbage-collection choice. Aborting a finished transaction is
// a no-op.
func (tx *Txn) Abort(ctx context.Context) error {
	if tx.state == stateActive {
		tx.abort(ctx)
	}
	return nil
}

// abort marks the transaction aborted and has the backend settle that
// and clean up. Policies that garbage collect drop every unfrozen lock;
// MVTO-style policies keep their read locks (as persistent read
// timestamps) but must not leave write intentions behind.
func (tx *Txn) abort(ctx context.Context) {
	tx.state = stateAborted
	tx.eng.backend.Abort(ctx, tx, !tx.eng.policy.CommitGC(tx))
	tx.finish()
}

// finish ends the transaction's use of pooled storage once it has
// committed or aborted and cleaned up: the scratch goes back to the
// engine with the footprint emptied and the transaction's settings in it
// — the policy's mark of first use, the clock override — reset. What a
// finished transaction still answers — its id, its outcome and
// CommitTS — is in the Txn's own memory; its footprint reads as empty.
func (tx *Txn) finish() {
	if sc := tx.scratch; sc != nil {
		tx.scratch = nil
		sc.clearFootprint()
		tx.eng.scratch.Put(sc)
	}
}
