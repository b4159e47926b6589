package core

import (
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Scratch is the working storage of one running transaction: the
// batches, results and sets its lock steps and its commit step rebuild
// over and over. An engine pools them — a transaction takes one at first
// use (Txn.Scratch) and hands it back when it finishes — so that what
// spills to the heap under contention is grown once per pool entry and
// not once per transaction. Nothing in it is the finished transaction's:
// what the transaction still reports lives in the Txn itself, and the
// values it handed its caller are the caller's (kv.Txn).
type Scratch struct {
	// Policy is the policy's own per-transaction state. It stays with
	// the Scratch when the transaction finishes, so a policy that finds
	// its state here reuses it, and the storage it has grown, instead of
	// allocating — and must reinitialize it.
	Policy any

	// Backend is the backend's own per-transaction state (the
	// coordinator's routes, grants and request buffers; the in-process
	// store keeps none), under the same rule. What stays in it holds no
	// value a caller wrote. It may hold the chunk the coordinator copies
	// read values into, at most one partly used one per Scratch: the
	// bytes already handed out are never written again, so the values
	// stay the callers', and the pool keeps that chunk alive with them.
	Backend any

	// keys is the batch in hand (Txn.Batch); reads and writes are the
	// results of the last Txn.ReadLocks and Txn.WriteLocks.
	keys   []int32
	reads  []ReadResult
	writes []lock.WriteResult

	// candidates is T of the commit step (Alg. 1 line 13); readOrWrite
	// and writeOnly are one key's Owned snapshots on the local backend's
	// way there.
	candidates             timestamp.ShrinkingSet
	readOrWrite, writeOnly timestamp.Set
}
