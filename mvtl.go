// Package mvtl is a transactional key-value store built on multiversion
// timestamp locking (MVTL), the concurrency control genre introduced in
//
//	Aguilera, David, Guerraoui, Wang:
//	"Locking Timestamps versus Locking Objects", PODC 2018.
//
// Instead of locking whole objects (two-phase locking) or relying on
// per-version read timestamps (timestamp ordering), MVTL transactions
// lock individual timestamps of each key. A transaction commits whenever
// one timestamp is locked across its entire read and write set — that
// timestamp becomes its serialization point. Fine-grained timeline
// locking lets the system explore many serialization points per
// transaction, committing workloads that other schemes abort.
//
// # Quick start
//
//	store := mvtl.Open(mvtl.Options{Algorithm: mvtl.TILEarly})
//	ctx := context.Background()
//	tx, _ := store.Begin(ctx)
//	_ = tx.Set(ctx, "greeting", []byte("hello"))
//	if err := tx.Commit(ctx); err != nil { ... }
//
// # Algorithms
//
// The Algorithm option selects one of the paper's policies (§5): TO
// (equivalent to MVTO+), Ghostbuster (no ghost aborts), Pref
// (preferential timestamps), Prio (critical transactions never aborted
// by normal ones), EpsilonClock (no serial aborts under ε-synchronized
// clocks), Pessimistic (equivalent to 2PL), and TILEarly/TILLate (the
// MVTIL variants evaluated in §8). All algorithms are serializable
// regardless of the choice (Theorem 1); they differ only in which
// workloads abort, block or deadlock. Algorithm is policy.Kind, so an
// algorithm prints under the one name every front end uses
// ("mvtil-early", "mvtl-to", "mvtl-pessimistic", ...).
//
// For the distributed system — storage servers, coordinators, commitment
// objects (§7/§H) — see the cmd/mvtl-server and cmd/mvtl-bench binaries
// and the examples/distributed example.
package mvtl

import (
	"context"
	"errors"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Algorithm selects the MVTL locking policy (§5 of the paper). It is
// policy.Kind: one table names, parses and builds every policy, for the
// in-process store and the distributed coordinator alike.
type Algorithm = policy.Kind

// Available algorithms.
const (
	// TILEarly is MVTIL committing at the earliest locked timestamp —
	// the paper's best all-round performer (§8). It is the zero value.
	TILEarly = policy.KindTILEarly
	// TILLate is MVTIL committing at the latest locked timestamp.
	TILLate = policy.KindTILLate
	// TO is MVTL-TO, behaviourally equivalent to multiversion timestamp
	// ordering (MVTO+, Theorem 5).
	TO = policy.KindTO
	// Ghostbuster is MVTL-TO plus garbage collection: immune to ghost
	// aborts (Theorem 7).
	Ghostbuster = policy.KindGhostbuster
	// Pref is the preferential algorithm: each transaction carries
	// alternative timestamps to fall back on, aborting strictly less
	// than MVTO+ (Theorem 2).
	Pref = policy.KindPref
	// Prio is the prioritizer: transactions marked critical are never
	// aborted by normal ones (Theorem 3).
	Prio = policy.KindPrio
	// EpsilonClock avoids serial aborts under ε-synchronized clocks
	// (Theorem 4).
	EpsilonClock = policy.KindEpsilonClock
	// Pessimistic emulates two-phase locking (Theorem 6).
	Pessimistic = policy.KindPessimistic
)

// Options configure a Store.
type Options struct {
	// Algorithm picks the locking policy; default TILEarly.
	Algorithm Algorithm
	// Delta is the MVTIL interval width in microseconds; default 5000
	// (5ms, as in the paper's evaluation).
	Delta int64
	// Epsilon is the clock synchronization bound for EpsilonClock, in
	// microseconds; default 1000.
	Epsilon int64
	// Alternatives customizes the Pref algorithm's A(t); default
	// {t−1ms, t−10ms}.
	Alternatives func(t Timestamp) []Timestamp
}

// Timestamp re-exports the timestamp type for Options.Alternatives.
type Timestamp = timestamp.Timestamp

// Store is a serializable multiversion key-value store.
type Store struct {
	db  *core.DB
	alg Algorithm
}

// Open creates an empty in-process store. It panics if opts.Algorithm
// names no algorithm.
func Open(opts Options) *Store {
	clk := clock.NewProcess(clock.System{}, 1)
	pol := opts.Algorithm.New(clk, policy.Params{
		Delta: opts.Delta, Epsilon: opts.Epsilon, Alternatives: policy.Alternatives(opts.Alternatives),
	})
	return &Store{db: core.New(pol, core.Options{}), alg: opts.Algorithm}
}

// Algorithm returns the store's policy name.
func (s *Store) Algorithm() string { return s.alg.String() }

// Begin starts a transaction. The Txn is its one allocation.
func (s *Store) Begin(ctx context.Context) (*Txn, error) {
	t := new(Txn)
	if err := s.db.BeginIn(ctx, &t.tx); err != nil {
		return nil, err
	}
	return t, nil
}

// BeginCritical starts a transaction marked critical; under the Prio
// algorithm it can never be aborted by normal transactions (§5.2).
func (s *Store) BeginCritical(ctx context.Context) (*Txn, error) {
	t, err := s.Begin(ctx)
	if err != nil {
		return nil, err
	}
	t.tx.Priority = true
	return t, nil
}

// Update runs fn inside a transaction, committing on nil return and
// aborting otherwise; a transaction that aborts is run again, for at
// most three attempts in all.
func (s *Store) Update(ctx context.Context, fn func(tx *Txn) error) error {
	_, err := kv.Retry{Attempts: 3}.Run(ctx, clock.SystemTimers{}, func() error {
		tx, err := s.Begin(ctx)
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			_ = tx.Abort(ctx)
			return err
		}
		return tx.Commit(ctx)
	})
	return err
}

// View runs fn inside a read-only transaction (Set fails), committing
// at the end.
func (s *Store) View(ctx context.Context, fn func(tx *Txn) error) error {
	tx, err := s.Begin(ctx)
	if err != nil {
		return err
	}
	tx.tx.SetReadOnly()
	if err := fn(tx); err != nil {
		_ = tx.Abort(ctx)
		return err
	}
	return tx.Commit(ctx)
}

// StateStats reports the store's state size: keys, interval-compressed
// lock records, frozen records and stored versions (§6, §8.4.5).
type StateStats = core.StateStats

// Stats returns the current state size.
func (s *Store) Stats() StateStats { return s.db.StateStats() }

// Purge discards versions and lock state older than ageMicros
// microseconds before now, keeping the newest version of each key below
// that bound and leaving the past frozen (§6). Any bound is safe: no key
// is trimmed past a lock a running transaction holds, and a transaction
// older than the bound aborts — its reads of purged versions, and its
// writes below the bound. Each commit already trims the keys it writes
// one second (core.Retention) behind its timestamp, so Purge is needed
// only to cut deeper, or to trim keys nobody writes any more.
func (s *Store) Purge(nowMicros, ageMicros int64) (versions, locks int) {
	bound := nowMicros - ageMicros
	if bound < 0 {
		bound = 0
	}
	return s.db.PurgeBelow(timestamp.New(bound, 0))
}

// IsAborted reports whether err indicates a transaction abort (the
// caller may retry with a new transaction).
func IsAborted(err error) bool { return errors.Is(err, kv.ErrAborted) }

// IsDeadlock reports whether err indicates the transaction was aborted
// as a deadlock victim. Victims should be retried immediately — the
// conflicting work was aborted on purpose — where other aborts warrant
// a backoff. IsAborted also holds for such errors.
func IsDeadlock(err error) bool { return errors.Is(err, kv.ErrDeadlock) }

// Txn is a transaction over a Store. Not safe for concurrent use by
// multiple goroutines.
type Txn struct {
	// tx is held by value and is the whole Txn, so that a transaction is
	// one allocation, of the core.Txn's size.
	tx core.Txn
}

// Get returns the value of key; nil means the key was never written.
// The value stays valid after the transaction ends and must not be
// modified: it is the store's own version, or the transaction's own
// buffered write. That is a property of Store, which keeps its versions
// in process, not of kv.Txn, whose values are lent only until the
// transaction ends.
func (t *Txn) Get(ctx context.Context, key string) ([]byte, error) {
	return t.tx.Read(ctx, key)
}

// Set buffers a write of value to key, visible after Commit. The store
// keeps value itself, so the caller must not modify it afterwards.
func (t *Txn) Set(ctx context.Context, key string, value []byte) error {
	err := t.tx.Write(ctx, key, value)
	if errors.Is(err, core.ErrReadOnly) {
		return fmt.Errorf("mvtl: Set %q inside View: %w", key, err)
	}
	return err
}

// Commit tries to commit; on failure the transaction aborted and
// IsAborted(err) is true.
func (t *Txn) Commit(ctx context.Context) error { return t.tx.Commit(ctx) }

// Abort discards the transaction.
func (t *Txn) Abort(ctx context.Context) error { return t.tx.Abort(ctx) }

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.tx.ID() }

// CommitTimestamp returns the serialization timestamp after a successful
// commit.
func (t *Txn) CommitTimestamp() Timestamp { return t.tx.CommitTS }
