// Package core implements the generic MVTL algorithm (§4 of the paper,
// Alg. 1): a transaction locks individual timestamps of keys rather than
// whole keys, and commits at any timestamp it holds locked across its
// entire footprint. Txn is the repository's only transaction type.
//
// It has two parameters, both an Engine's. A Policy (Alg. 2) supplies
// the nondeterministic choices; the specialized algorithms of §5 live in
// the policy package, and correctness (Theorem 1) is independent of the
// policy. A Backend is where the keys live: this package's in-process
// store (DB), or the storage servers behind the coordinator of
// internal/client (§7/§H, Alg. 11). Every rule of the paper is written
// once, in Txn or in a policy, and runs over either backend.
//
// A Txn keeps its id, its settings and what a finished transaction
// still answers: its outcome and CommitTS. What it works with while it
// runs — its footprint, the policy's state for it, a clock override — is
// the pooled Scratch's, and goes back to the pool when it finishes.
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
// share: the backend their keys live on, the policy that governs them,
// the options, and the pool of their working storage.
type Engine struct {
	// backend is one value per store or coordinator: what it keeps of a
	// transaction rides the transaction's scratch (Scratch.Backend).
	backend Backend
	policy  Policy
	opts    Options
	// scratch pools the transactions' working storage (*Scratch).
	scratch sync.Pool
}

// NewEngine returns an engine over backend b, governed by the given
// policy.
func NewEngine(b Backend, policy Policy, opts Options) *Engine {
	e := &Engine{backend: b, policy: policy, opts: opts}
	e.scratch.New = func() any { return new(Scratch) }
	return e
}

// Begin starts transaction id over the engine's backend (Alg. 1 line
// 1). The Txn is the transaction's one allocation, and a small one:
// its footprint, its policy state and its clock override live in the
// pooled scratch it takes at first use.
func (e *Engine) Begin(id uint64) *Txn {
	tx := new(Txn)
	e.BeginIn(tx, id)
	return tx
}

// BeginIn is Begin into caller-provided storage, which must be a zero
// Txn: a caller whose own transaction type holds the Txn by value keeps
// the transaction at one allocation.
func (e *Engine) BeginIn(tx *Txn, id uint64) {
	tx.id, tx.eng = id, e
}

// DB is an in-process MVTL transactional store: an Engine over the
// local backend (local.go).
type DB struct {
	*Engine

	// keys holds every key's lock table, version history included. Its
	// lock tables share one store-wide wait-for graph: blocking policies fail
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
	db := &DB{keys: keyspace.New(lock.NewWaitGraph(), nil)}
	db.Engine = NewEngine(db, policy, opts)
	return db
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
	tx := new(Txn)
	if err := db.BeginIn(ctx, tx); err != nil {
		return nil, err
	}
	return tx, nil
}

// BeginIn is Begin into caller-provided storage, a zero Txn (see
// Engine.BeginIn).
func (db *DB) BeginIn(ctx context.Context, tx *Txn) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	db.Engine.BeginIn(tx, db.nextID.Add(1))
	return nil
}

// StateStats summarizes the store's state size.
type StateStats = keyspace.Stats

// StateStats scans the store and returns its current state size.
func (db *DB) StateStats() StateStats { return db.keys.Stats() }

// PurgeBelow trims every key below the bound (§6, lock.Table.Trim)
// and returns the number of versions and lock records removed. Any
// bound is safe: no key is trimmed past a lock a running transaction
// holds, and a transaction older than the bound aborts — its reads of
// trimmed versions with version.ErrPurged, its writes below the bound
// on the frozen past.
func (db *DB) PurgeBelow(bound timestamp.Timestamp) (versionsRemoved, locksRemoved int) {
	return db.keys.PurgeBelow(bound)
}
