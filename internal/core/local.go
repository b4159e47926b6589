package core

import (
	"context"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// The local backend: DB runs a transaction's steps on its own keyspace.
// What it keeps per transaction is each footprint entry's key handle,
// in the entry itself.
var _ Backend = (*DB)(nil)

// key returns the state of the key at position i of tx's footprint,
// resolving it at first use — which also marks it for Release.
func (db *DB) key(tx *Txn, i int32) *keyspace.Key {
	e := &tx.scratch.foot[i]
	if e.ks == nil {
		e.ks = db.keys.Key(e.key)
	}
	return e.ks
}

// ReadLocks implements Backend: the lock table's read step on each key,
// picking below upper and locking up to it.
func (db *DB) ReadLocks(ctx context.Context, tx *Txn, keys []int32, upper timestamp.Timestamp, wait bool, out []ReadResult) error {
	for j, i := range keys {
		ks, r := db.key(tx, i), &out[j]
		err := ctx.Err()
		if err == nil {
			r.Version, r.Got, err = ks.Locks.Read(ctx, tx.Owner(), upper, upper, wait)
		}
		if err != nil {
			return KeyErr(len(keys), ks.Name, err)
		}
	}
	return nil
}

// WriteLocks implements Backend.
func (db *DB) WriteLocks(ctx context.Context, tx *Txn, keys []int32, set timestamp.Set, opts lock.Options, out []lock.WriteResult) error {
	for j, i := range keys {
		ks := db.key(tx, i)
		if err := ks.Locks.AcquireWriteInto(ctx, tx.Owner(), set, opts, &out[j]); err != nil {
			return KeyErr(len(keys), ks.Name, err)
		}
	}
	return nil
}

// Candidates implements Backend from the lock tables themselves.
func (db *DB) Candidates(tx *Txn, t *timestamp.ShrinkingSet) {
	sc := tx.Scratch()
	for i := range sc.foot {
		e := &sc.foot[i]
		if !e.read && !e.written {
			continue
		}
		db.key(tx, int32(i)).Locks.OwnedInto(tx.Owner(), &sc.readOrWrite, &sc.writeOnly)
		if e.written {
			// On a key both read and written this subsumes the read's
			// requirement.
			t.Intersect(sc.writeOnly)
		} else {
			t.Intersect(sc.readOrWrite)
		}
		if t.IsEmpty() {
			return
		}
	}
}

// Retention is how far back a commit leaves each key it writes (K of
// §8.1): one second in the clock's microsecond ticks. Commit trims the
// key below ts − Retention, so a key keeps what was written in its last
// Retention, not its whole run.
const Retention = 1_000_000

// Commit implements Backend: a local commit is decided by its commit
// steps, Alg. 1's atomic block on each key it writes — the version
// installed and the write lock frozen at ts in one critical section of
// the key's lock table, which also trims the key below ts − Retention.
func (db *DB) Commit(_ context.Context, tx *Txn, ts timestamp.Timestamp, gc bool) (Outcome, error) {
	sc := tx.scratch
	bound := timestamp.New(ts.Time-Retention, 0)
	for _, i := range sc.writeOrder {
		e := &sc.foot[i]
		if _, err := e.ks.Locks.Commit(tx.Owner(), ts, e.value, bound); err != nil {
			// Unreachable: tx holds the write lock at ts, and a trim
			// never passes a lock a running transaction holds, so the
			// version floor stays below ts.
			return Aborted, fmt.Errorf("commit %q at %v: %w", e.key, ts, err)
		}
	}
	if !gc {
		return Committed, nil
	}
	for i := range sc.foot {
		if e := &sc.foot[i]; e.read {
			e.ks.Locks.FreezeReadIn(tx.Owner(), timestamp.Span(e.readVer.Next(), ts))
		}
	}
	db.release(tx, false)
	return Committed, nil
}

// Abort implements Backend: there is nobody to tell about the outcome.
func (db *DB) Abort(_ context.Context, tx *Txn, writesOnly bool) { db.release(tx, writesOnly) }

// release drops tx's unfrozen locks, or only its write locks, on every
// key it touched here.
func (db *DB) release(tx *Txn, writesOnly bool) {
	foot := tx.footprint()
	for i := range foot {
		switch ks := foot[i].ks; {
		case ks == nil:
		case writesOnly:
			ks.Locks.ReleaseWrites(tx.Owner())
		default:
			ks.Locks.ReleaseUnfrozen(tx.Owner())
		}
	}
}
