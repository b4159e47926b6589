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
// workloads abort, block or deadlock.
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

// Algorithm selects the MVTL locking policy (§5 of the paper).
type Algorithm uint8

// Available algorithms.
const (
	// TILEarly is MVTIL committing at the earliest locked timestamp —
	// the paper's best all-round performer (§8).
	TILEarly Algorithm = iota + 1
	// TILLate is MVTIL committing at the latest locked timestamp.
	TILLate
	// TO is MVTL-TO, behaviourally equivalent to multiversion timestamp
	// ordering (MVTO+, Theorem 5).
	TO
	// Ghostbuster is MVTL-TO plus garbage collection: immune to ghost
	// aborts (Theorem 7).
	Ghostbuster
	// Pref is the preferential algorithm: each transaction carries
	// alternative timestamps to fall back on, aborting strictly less
	// than MVTO+ (Theorem 2).
	Pref
	// Prio is the prioritizer: transactions marked critical are never
	// aborted by normal ones (Theorem 3).
	Prio
	// EpsilonClock avoids serial aborts under ε-synchronized clocks
	// (Theorem 4).
	EpsilonClock
	// Pessimistic emulates two-phase locking (Theorem 6).
	Pessimistic
)

// String renders the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case TILEarly:
		return "mvtil-early"
	case TILLate:
		return "mvtil-late"
	case TO:
		return "mvtl-to"
	case Ghostbuster:
		return "mvtl-ghostbuster"
	case Pref:
		return "mvtl-pref"
	case Prio:
		return "mvtl-prio"
	case EpsilonClock:
		return "mvtl-eps-clock"
	case Pessimistic:
		return "mvtl-pessimistic"
	default:
		return fmt.Sprintf("algorithm(%d)", uint8(a))
	}
}

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
	db *core.DB
}

// Open creates an empty in-process store.
func Open(opts Options) *Store {
	if opts.Algorithm == 0 {
		opts.Algorithm = TILEarly
	}
	if opts.Delta == 0 {
		opts.Delta = 5000
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 1000
	}
	clk := clock.NewProcess(clock.System{}, 1)
	var pol core.Policy
	switch opts.Algorithm {
	case TILLate:
		pol = policy.NewTIL(clk, opts.Delta, policy.CommitLate, true)
	case TO:
		pol = policy.NewTO(clk)
	case Ghostbuster:
		pol = policy.NewGhostbuster(clk)
	case Pref:
		alts := policy.Alternatives(opts.Alternatives)
		if opts.Alternatives == nil {
			alts = policy.OffsetAlternatives(-1_000, -10_000)
		}
		pol = policy.NewPref(clk, alts)
	case Prio:
		pol = policy.NewPrio(clk)
	case EpsilonClock:
		pol = policy.NewEpsilonClock(clk, opts.Epsilon)
	case Pessimistic:
		pol = policy.NewPessimistic()
	default:
		pol = policy.NewTIL(clk, opts.Delta, policy.CommitEarly, true)
	}
	return &Store{db: core.New(pol, core.Options{})}
}

// Algorithm returns the store's policy name.
func (s *Store) Algorithm() string { return s.db.Policy().Name() }

// Begin starts a transaction.
func (s *Store) Begin(ctx context.Context) (*Txn, error) {
	tx, err := s.db.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &Txn{tx: tx}, nil
}

// BeginCritical starts a transaction marked critical; under the Prio
// algorithm it can never be aborted by normal transactions (§5.2).
func (s *Store) BeginCritical(ctx context.Context) (*Txn, error) {
	tx, err := s.db.Begin(ctx)
	if err != nil {
		return nil, err
	}
	tx.Priority = true
	return &Txn{tx: tx}, nil
}

// Update runs fn inside a transaction, committing on nil return and
// aborting otherwise; on abort caused by contention it retries up to
// three times.
func (s *Store) Update(ctx context.Context, fn func(tx *Txn) error) error {
	const maxAttempts = 3
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		tx, err := s.Begin(ctx)
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			_ = tx.Abort(ctx)
			if IsAborted(err) {
				lastErr = err
				continue
			}
			return err
		}
		if err := tx.Commit(ctx); err == nil {
			return nil
		} else if !IsAborted(err) {
			return err
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// View runs fn inside a read-only transaction (enforced by the wrapper:
// Set fails), committing at the end.
func (s *Store) View(ctx context.Context, fn func(tx *Txn) error) error {
	tx, err := s.Begin(ctx)
	if err != nil {
		return err
	}
	tx.readOnly = true
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
// microseconds before now, keeping the newest version of each key (§6).
// Transactions that later need purged history abort.
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
	tx       *core.Txn
	readOnly bool
}

// Get returns the value of key; nil means the key was never written.
func (t *Txn) Get(ctx context.Context, key string) ([]byte, error) {
	return t.tx.Read(ctx, key)
}

// Set buffers a write of value to key, visible after Commit.
func (t *Txn) Set(ctx context.Context, key string, value []byte) error {
	if t.readOnly {
		return fmt.Errorf("mvtl: Set %q inside View: transaction is read-only", key)
	}
	return t.tx.Write(ctx, key, value)
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
