// Package kv defines the transactional key-value interface shared by
// everything that runs transactions in this repository: the MVTL engine
// (internal/core) with its policies — over its in-process store, and
// over the storage servers through the coordinator of internal/client —
// and the independent MVTO+ and 2PL baselines. Workloads and benchmarks
// are written against this interface so that all of them can be driven
// and compared uniformly (§8.3).
package kv

import (
	"context"
	"errors"
)

// Common errors surfaced by engines.
var (
	// ErrAborted reports that the transaction aborted and its effects
	// were discarded; the caller may retry with a fresh transaction.
	ErrAborted = errors.New("kv: transaction aborted")
	// ErrTxnDone reports an operation on a transaction that has already
	// committed or aborted.
	ErrTxnDone = errors.New("kv: transaction already finished")
	// ErrDeadlock reports that the transaction was aborted as the
	// victim of a detected deadlock cycle (always wrapped together with
	// ErrAborted). Unlike an ordinary conflict abort, the conflicting
	// work was killed on purpose, so the right retry policy is an
	// immediate restart rather than a backoff.
	ErrDeadlock = errors.New("kv: deadlock victim")
	// ErrUncertain reports that the commit outcome is unknown: the
	// decision request was sent to the storage servers but its reply was
	// lost (partition, crash, timeout), so the transaction may be durably
	// committed or may later abort. Only a transaction whose keys live
	// on the servers can end this way. It is NOT wrapped with ErrAborted — callers must
	// not count it as an abort, must not blind-retry the transaction
	// (a retry could double-apply its writes), and must treat the
	// transaction's effects as possibly visible.
	ErrUncertain = errors.New("kv: commit outcome uncertain")
)

// DB is a transactional store.
type DB interface {
	// Begin starts a transaction.
	Begin(ctx context.Context) (Txn, error)
}

// MultiGetter is the optional batched read interface. The MVTL engine's
// transaction implements it: over the storage servers a whole static
// read set costs one round trip per server instead of one per key. Semantics
// match a loop of Read calls (buffered writes are served locally, a nil
// value means ⊥), except that all keys are read under the transaction's
// bound at call time.
type MultiGetter interface {
	GetMulti(ctx context.Context, keys []string) (map[string][]byte, error)
}

// GetMulti reads keys through tx's batched read path when it has one,
// falling back to one Read per key. The result has one entry per
// distinct key.
func GetMulti(ctx context.Context, tx Txn, keys []string) (map[string][]byte, error) {
	if mg, ok := tx.(MultiGetter); ok {
		return mg.GetMulti(ctx, keys)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if _, done := out[k]; done {
			continue // duplicates read once, as in the batched path
		}
		v, err := tx.Read(ctx, k)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// Txn is a single transaction. Implementations are not safe for
// concurrent use by multiple goroutines; each transaction belongs to one
// client thread (§8.1).
type Txn interface {
	// Read returns the value of key within the transaction. A nil value
	// with a nil error means the key holds ⊥ (never written).
	Read(ctx context.Context, key string) ([]byte, error)
	// Write buffers a value for key; it becomes visible to other
	// transactions only after Commit.
	Write(ctx context.Context, key string, value []byte) error
	// Commit tries to commit. It returns nil on success and ErrAborted
	// (possibly wrapped) if the transaction could not be serialized.
	Commit(ctx context.Context) error
	// Abort discards the transaction. Aborting a finished transaction
	// is a no-op.
	Abort(ctx context.Context) error
	// ID returns a unique transaction identifier.
	ID() uint64
}
