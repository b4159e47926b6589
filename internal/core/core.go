// Package core implements the generic MVTL algorithm (§4 of the paper):
// a transactional multiversion store in which transactions lock
// individual timestamps of keys rather than whole keys, and commit at any
// timestamp they hold locked across their entire footprint.
//
// The engine is parameterized by a Policy (Algorithm 2) supplying the
// nondeterministic choices; the specialized algorithms of §5 live in the
// policy package. Correctness (Theorem 1) is independent of the policy.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Options configure a DB.
type Options struct {
	// Recorder, when non-nil, receives every committed transaction's
	// footprint for offline serializability checking. Intended for
	// tests; it adds overhead.
	Recorder *history.Recorder
}

// DB is an MVTL transactional store.
type DB struct {
	policy Policy
	opts   Options

	// keys holds every key's lock table and version history. Its lock
	// tables share one store-wide wait-for graph: blocking policies fail
	// fast with lock.ErrDeadlock on wait cycles instead of relying on
	// context timeouts (§4.3).
	keys *keyspace.Space

	// nextID is the transaction-id allocator. It is atomic rather than
	// mutex-guarded so Begin never serializes transactions behind a
	// store-wide lock.
	nextID atomic.Uint64

	// scratch pools the transactions' working storage (*Scratch).
	scratch sync.Pool
}

// New returns an empty store governed by the given policy.
func New(policy Policy, opts Options) *DB {
	db := &DB{policy: policy, opts: opts, keys: keyspace.New(lock.NewWaitGraph(), nil)}
	db.scratch.New = func() any { return new(Scratch) }
	return db
}

// Policy returns the policy the store was created with.
func (db *DB) Policy() Policy { return db.policy }

// kvAdapter adapts DB to the engine-neutral kv.DB interface.
type kvAdapter struct{ db *DB }

// Begin implements kv.DB.
func (a kvAdapter) Begin(ctx context.Context) (kv.Txn, error) { return a.db.Begin(ctx) }

// KV returns a kv.DB view of the store, for workload drivers that treat
// all engines uniformly.
func (db *DB) KV() kv.DB { return kvAdapter{db: db} }

// Begin starts a transaction (Alg. 1 line 1).
func (db *DB) Begin(ctx context.Context) (*Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tx := &Txn{id: db.nextID.Add(1), db: db}
	tx.foot = tx.footBuf[:0]
	tx.readset = tx.readsetBuf[:0]
	tx.writeOrder = tx.writeOrderBuf[:0]
	db.policy.Begin(tx)
	return tx, nil
}

// StateStats summarizes the store's state size.
type StateStats = keyspace.Stats

// StateStats scans the store and returns its current state size.
func (db *DB) StateStats() StateStats { return db.keys.Stats() }

// PurgeBelow discards versions and frozen lock state older than the
// bound (§6) and returns the number of versions and lock records
// removed. Transactions that later need a purged version abort with
// version.ErrPurged.
func (db *DB) PurgeBelow(bound timestamp.Timestamp) (versionsRemoved, locksRemoved int) {
	return db.keys.PurgeBelow(bound)
}
