package core

import (
	"context"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Policy fixes the nondeterministic choices of the generic MVTL algorithm
// (Algorithm 2 of the paper): which timestamps each operation locks, how
// locks are acquired (waiting or giving up), which commit timestamp is
// picked among the candidates, and whether garbage collection runs at
// commit. Theorem 1 guarantees serializability for every policy; the
// policy only affects liveness and performance.
//
// A policy names keys by their position in the transaction's footprint
// and reaches them only through Txn.ReadLocks and Txn.WriteLocks, each
// over a batch of keys — so it runs unchanged over every Backend, and a
// batch costs a remote one a round trip per server, not per key. It sets
// up its per-transaction state (the "Initialization" of the specialized
// algorithms) in Scratch.Policy at the transaction's first operation,
// when the clock override (Txn.SetClock) and Txn.Priority are known.
type Policy interface {
	// WriteLocks acquires whatever write locks the policy takes at
	// write time for one key (possibly none; several policies defer all
	// write locking to commit). An error aborts the transaction.
	WriteLocks(ctx context.Context, tx *Txn, key int32) error

	// Read selects, for every key of the batch, the version to read and
	// acquires read locks on a contiguous interval immediately following
	// it, all under the transaction's bound at the time of the call. It
	// returns Txn.ReadLocks' results, aligned with keys as that step
	// left them. An error aborts the transaction.
	Read(ctx context.Context, tx *Txn, keys []int32) ([]ReadResult, error)

	// CommitLocks acquires the locks the policy takes at commit time
	// (for example, write locks on the chosen timestamp). An error
	// aborts the transaction.
	CommitLocks(ctx context.Context, tx *Txn) error

	// CommitTS picks the commit timestamp out of the candidate set T —
	// the timestamps locked across the whole read and write set
	// (Alg. 1 line 13). Returning ok=false aborts the transaction. The
	// engine verifies the choice is a member of T.
	CommitTS(tx *Txn, candidates timestamp.Set) (timestamp.Timestamp, bool)

	// CommitGC reports whether the engine should garbage collect the
	// transaction's locks when it finishes: freeze the read locks
	// between the version read and the commit timestamp and release
	// everything unfrozen (Alg. 1 lines 22-26). Policies that emulate
	// MVTO+ return false, deliberately leaving read locks behind.
	CommitGC(tx *Txn) bool
}
