// Package core implements the generic MVTL algorithm (§4 of the paper,
// Alg. 1): a transaction locks individual timestamps of keys rather than
// whole keys, and commits at any timestamp it holds locked across its
// entire footprint. Txn is the repository's only transaction type.
//
// It has two parameters. A Policy (Alg. 2) supplies the nondeterministic
// choices; the specialized algorithms of §5 live in the policy package,
// and correctness (Theorem 1) is independent of the policy. A Backend is
// where the keys live: this package's in-process store (DB), or the
// storage servers behind the coordinator of internal/client (§7/§H,
// Alg. 11). Every rule of the paper is written once, in Txn or in a
// policy, and runs over either backend.
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

// Options configure an Engine.
type Options struct {
	// Recorder, when non-nil, receives every committed transaction's
	// footprint for offline serializability checking. Intended for
	// tests; it adds overhead.
	Recorder *history.Recorder
}

// Engine is what the transactions of one store or one coordinator
// share: the policy that governs them, the options, and the pool of
// their working storage.
type Engine struct {
	policy Policy
	opts   Options
	// scratch pools the transactions' working storage (*Scratch).
	scratch sync.Pool
}

// NewEngine returns an engine governed by the given policy.
func NewEngine(policy Policy, opts Options) *Engine {
	e := &Engine{policy: policy, opts: opts}
	e.scratch.New = func() any { return new(Scratch) }
	return e
}

// Policy returns the policy the engine was created with.
func (e *Engine) Policy() Policy { return e.policy }

// Begin starts transaction id over backend b (Alg. 1 line 1) in tx,
// zeroed memory of the caller's: a backend with state per transaction
// keeps it and the Txn in one allocation.
func (e *Engine) Begin(tx *Txn, id uint64, b Backend) {
	tx.id, tx.eng, tx.backend = id, e, b
	tx.foot = tx.footBuf[:0]
	tx.writeOrder = tx.writeOrderBuf[:0]
}

// DB is an in-process MVTL transactional store: an Engine over the
// local backend (local.go).
type DB struct {
	*Engine

	// keys holds every key's lock table and version history. Its lock
	// tables share one store-wide wait-for graph: blocking policies fail
	// fast with lock.ErrDeadlock on wait cycles instead of relying on
	// context timeouts (§4.3).
	keys *keyspace.Space

	// nextID is the transaction-id allocator. It is atomic rather than
	// mutex-guarded so Begin never serializes transactions behind a
	// store-wide lock.
	nextID atomic.Uint64
}

// New returns an empty store governed by the given policy.
func New(policy Policy, opts Options) *DB {
	return &DB{Engine: NewEngine(policy, opts), keys: keyspace.New(lock.NewWaitGraph(), nil)}
}

// kvAdapter adapts DB to the engine-neutral kv.DB interface.
type kvAdapter struct{ db *DB }

// Begin implements kv.DB.
func (a kvAdapter) Begin(ctx context.Context) (kv.Txn, error) { return a.db.Begin(ctx) }

// KV returns a kv.DB view of the store, for workload drivers that treat
// all engines uniformly.
func (db *DB) KV() kv.DB { return kvAdapter{db: db} }

// Begin starts a transaction.
func (db *DB) Begin(ctx context.Context) (*Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tx := new(Txn)
	db.Engine.Begin(tx, db.nextID.Add(1), db)
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
