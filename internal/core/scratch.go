package core

import (
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Scratch is the working storage of one running transaction: the sets
// its lock acquisitions and its commit step rebuild over and over. A
// store pools them — a transaction takes one at first use (Txn.Scratch)
// and hands it back when it finishes — so that the sets, which spill to
// the heap under contention, are grown once per pool entry and not once
// per transaction. Nothing in it outlives the transaction: what a
// finished transaction still reports lives in the Txn itself.
type Scratch struct {
	// Write receives the policy's write acquisitions
	// (lock.Table.AcquireWriteInto).
	Write lock.WriteResult
	// Policy is the policy's own per-transaction state. It stays with
	// the Scratch when the transaction finishes, so a policy that finds
	// its state here reuses it, and the storage it has grown, instead of
	// allocating — and must reinitialize it.
	Policy any

	// candidates is T of the commit step (Alg. 1 line 13); readOrWrite
	// and writeOnly are one key's Owned snapshots on the way there.
	candidates             timestamp.ShrinkingSet
	readOrWrite, writeOnly timestamp.Set
}
