package core

import (
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Scratch is the working storage of one running transaction: its
// footprint, and the batches, results and sets its lock steps and its
// commit step rebuild over and over. An engine pools them — a
// transaction takes one at first use (Txn.Scratch) and hands it back
// when it finishes — so that what spills to the heap, a footprint of
// many keys included, is grown once per pool entry and not once per
// transaction. Nothing in it is the finished transaction's: what the
// transaction still reports (its id, outcome and CommitTS) lives in the
// Txn itself, and what it lent its caller — values read, GetMulti's map
// — was lent only until it ended (kv.Txn).
type Scratch struct {
	// Policy is the policy's own per-transaction state, its one home. It
	// stays with the Scratch when the transaction finishes, so a policy
	// that finds its state here reuses it, and the storage it has grown,
	// instead of allocating — and must reinitialize it at the first use
	// by the transaction holding the Scratch (FirstPolicyUse).
	Policy any

	// Backend is the backend's own per-transaction state (the
	// coordinator's routes, grants and request buffers; the in-process
	// store keeps none), under the same rule. What stays in it holds no
	// value a caller wrote. It may hold the region the coordinator
	// copies read values into, which the next transaction overwrites:
	// the values were lent only until the last one ended.
	Backend any

	// foot is the footprint: one entry per key, in order of first use —
	// the order locks are cleaned up in. writeOrder lists the written
	// keys, by position, in order of first write. index finds a key's
	// entry once foot is longer than footIndexAt; below that it is
	// empty, and keys are found by a scan.
	foot       []footEntry
	writeOrder []int32
	index      map[string]int32

	// keys is the batch in hand (Txn.Batch); reads and writes are the
	// results of the last Txn.ReadLocks and Txn.WriteLocks, and multi is
	// the map the last Txn.GetMulti returned.
	keys   []int32
	reads  []ReadResult
	writes []lock.WriteResult
	multi  map[string][]byte

	// candidates is T of the commit step (Alg. 1 line 13); readOrWrite
	// and writeOnly are one key's Owned snapshots on the local backend's
	// way there.
	candidates             timestamp.ShrinkingSet
	readOrWrite, writeOnly timestamp.Set

	// policyUsed marks Policy as set up for the transaction holding the
	// Scratch; clock is that transaction's clock override (Txn.SetClock).
	// Both are the transaction's settings: the next one starts without.
	policyUsed bool
	clock      *clock.Process
}

// FirstPolicyUse reports whether the transaction holding the Scratch
// reaches its policy state for the first time, when the policy must
// initialize Policy whatever an earlier transaction left there, and
// marks it reached.
func (sc *Scratch) FirstPolicyUse() bool {
	first := !sc.policyUsed
	sc.policyUsed = true
	return first
}

// Clock returns the transaction's clock override (Txn.SetClock): nil
// unless one was set, when the policy's default clock applies.
func (sc *Scratch) Clock() *clock.Process { return sc.clock }

// clearFootprint empties the footprint for the next transaction, resets
// the finished one's settings — the policy's mark of first use and the
// clock override — and drops what the pool must not keep alive: the
// keys, the local backend's key handles, and the values written and
// read, GetMulti's map of them included, which is left empty.
func (sc *Scratch) clearFootprint() {
	sc.policyUsed, sc.clock = false, nil
	if len(sc.foot) > footIndexAt {
		clear(sc.index)
	}
	clear(sc.foot)
	sc.foot, sc.writeOrder = sc.foot[:0], sc.writeOrder[:0]
	clear(sc.reads[:cap(sc.reads)])
	clear(sc.multi)
}
