package core

import (
	"context"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// The local backend: DB runs a transaction's steps on its own keyspace.
// What it keeps per transaction is each footprint entry's key handle.
var _ Backend = (*DB)(nil)

// key returns the state of the key at position i of tx's footprint,
// resolving it at first use — which also marks it for Release.
func (db *DB) key(tx *Txn, i int32) *keyspace.Key {
	e := &tx.foot[i]
	if e.ks == nil {
		e.ks = db.keys.Key(e.key)
	}
	return e.ks
}

// ReadLocks implements Backend: the kernel's read step on each key,
// repeated while a frozen write lock reveals that a newer version
// committed in between (the repeat loop of Alg. 8).
func (db *DB) ReadLocks(ctx context.Context, tx *Txn, keys []int32, upper timestamp.Timestamp, wait bool, out []ReadResult) error {
	for j, i := range keys {
		ks, r := db.key(tx, i), &out[j]
		for again := true; again; {
			var at timestamp.Timestamp
			err := ctx.Err()
			if err == nil {
				r.Version, r.Got, at, again, err = ks.ReadStep(ctx, tx.Owner(), upper, wait)
			}
			r.FrozenAt = timestamp.Max(r.FrozenAt, at)
			if err != nil {
				return KeyErr(len(keys), ks.Name, err)
			}
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
	for i := range tx.foot {
		e := &tx.foot[i]
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

// Commit implements Backend: a local commit is decided by installing
// its versions — before the write locks freeze, so that any reader
// observing a frozen write lock is guaranteed to find the version (the
// Go-idiomatic counterpart of the §6 special-value construction that
// removes the atomic block of Alg. 1).
func (db *DB) Commit(_ context.Context, tx *Txn, ts timestamp.Timestamp, gc bool) (Outcome, error) {
	for _, i := range tx.writeOrder {
		e := &tx.foot[i]
		if err := e.ks.Versions.Install(ts, e.value); err != nil {
			// Unreachable while the write lock at ts is held and the
			// purge bound trails active transactions.
			return Aborted, fmt.Errorf("install %q at %v: %w", e.key, ts, err)
		}
	}
	for _, i := range tx.writeOrder {
		tx.foot[i].ks.Locks.FreezeWriteAt(tx.Owner(), ts)
	}
	if !gc {
		return Committed, nil
	}
	for i := range tx.foot {
		if e := &tx.foot[i]; e.read {
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
	for i := range tx.foot {
		switch ks := tx.foot[i].ks; {
		case ks == nil:
		case writesOnly:
			ks.Locks.ReleaseWrites(tx.Owner())
		default:
			ks.Locks.ReleaseUnfrozen(tx.Owner())
		}
	}
}
