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
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

// shardCount is the number of key-map shards; a power of two.
const shardCount = 64

// KeyState bundles the per-key state: the freezable interval lock table
// and the version history.
type KeyState struct {
	// Locks is the interval-compressed lock state of the key.
	Locks *lock.Table
	// Versions is the committed version history of the key.
	Versions *version.List
}

type shard struct {
	mu   sync.RWMutex
	keys map[string]*KeyState
}

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

	shards [shardCount]shard
	// waits is the store-wide wait-for graph: blocking policies fail
	// fast with lock.ErrDeadlock on wait cycles instead of relying on
	// context timeouts (§4.3).
	waits *lock.WaitGraph

	// nextID is the transaction-id allocator. It is atomic rather than
	// mutex-guarded so Begin never serializes transactions behind a
	// store-wide lock.
	nextID atomic.Uint64

	// scratch pools the transactions' working storage (*Scratch).
	scratch sync.Pool
}

// New returns an empty store governed by the given policy.
func New(policy Policy, opts Options) *DB {
	db := &DB{policy: policy, opts: opts, waits: lock.NewWaitGraph()}
	db.scratch.New = func() any { return new(Scratch) }
	for i := range db.shards {
		db.shards[i].keys = make(map[string]*KeyState)
	}
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

// keyState returns the state for k, creating it if needed.
func (db *DB) keyState(k string) *KeyState {
	sh := &db.shards[strhash.FNV1a(k)&(shardCount-1)]
	sh.mu.RLock()
	ks, ok := sh.keys[k]
	sh.mu.RUnlock()
	if ok {
		return ks
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ks, ok = sh.keys[k]; ok {
		return ks
	}
	ks = &KeyState{Locks: lock.NewTableDetected(db.waits), Versions: version.NewList()}
	sh.keys[k] = ks
	return ks
}

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

// StateStats summarizes the store's state size, used by the state-size
// experiment (§8.4.5, Figure 6).
type StateStats struct {
	// Keys is the number of distinct keys materialized.
	Keys int
	// LockEntries is the total number of interval-compressed lock
	// records across all keys.
	LockEntries int
	// FrozenLockEntries is how many of those records are frozen.
	FrozenLockEntries int
	// Versions is the total number of stored versions across all keys.
	Versions int
}

// StateStats scans the store and returns its current state size. Key
// pointers are snapshotted per shard before the per-key statistics are
// gathered, so the scan never holds a shard lock while taking per-key
// locks and stats collection cannot stall writers.
func (db *DB) StateStats() StateStats {
	var st StateStats
	var states []*KeyState
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		states = states[:0]
		for _, ks := range sh.keys {
			states = append(states, ks)
		}
		sh.mu.RUnlock()
		st.Keys += len(states)
		for _, ks := range states {
			ls := ks.Locks.Stats()
			st.LockEntries += ls.Entries
			st.FrozenLockEntries += ls.Frozen
			st.Versions += ks.Versions.Count()
		}
	}
	return st
}

// PurgeBelow discards versions and frozen lock state older than the
// bound (§6): each key keeps the newest version below the bound, and
// frozen lock records entirely below the bound are dropped. It returns
// the number of versions and lock records removed. Transactions that
// later need a purged version abort with version.ErrPurged.
func (db *DB) PurgeBelow(bound timestamp.Timestamp) (versionsRemoved, locksRemoved int) {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		states := make([]*KeyState, 0, len(sh.keys))
		for _, ks := range sh.keys {
			states = append(states, ks)
		}
		sh.mu.RUnlock()
		for _, ks := range states {
			versionsRemoved += ks.Versions.PurgeBelow(bound)
			locksRemoved += ks.Locks.PurgeFrozenBelow(bound)
		}
	}
	return versionsRemoved, locksRemoved
}
