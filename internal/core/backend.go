package core

import (
	"context"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

// Backend is where a transaction's keys live: the steps Alg. 1 and the
// policies take against the keys' lock tables. The in-process
// store runs them on its keyspace (local.go); the coordinator sends
// them to the storage servers (internal/client, Alg. 11). Keys are
// positions in the footprint (Txn.KeyName).
//
// The two lock steps take a batch, which a backend may reorder in place
// (a remote one groups it by server); out has the batch's length and is
// aligned with the batch as the step leaves it. They return the first
// failure; locks granted to other keys of the batch stay granted, and
// are the backend's to remember for Abort.
type Backend interface {
	// ReadLocks runs the read step on every key (lock.Table.Read): the
	// latest version below upper, and read locks from just above it up
	// to upper —
	// parking on unfrozen write locks when wait is set, taking the
	// contiguous prefix it can get otherwise. The values read are lent
	// to the transaction under kv.Txn's rule: valid until it ends, never
	// modified.
	ReadLocks(ctx context.Context, tx *Txn, keys []int32, upper timestamp.Timestamp, wait bool, out []ReadResult) error

	// WriteLocks write-locks set on every key as opts allow. Values ride
	// along (Txn.WriteOf): a remote backend buffers them at the servers.
	WriteLocks(ctx context.Context, tx *Txn, keys []int32, set timestamp.Set, opts lock.Options, out []lock.WriteResult) error

	// Candidates narrows t to the timestamps the transaction holds
	// locked on its whole footprint (Alg. 1 line 13): read- or
	// write-locked on every key read, write-locked on every key written.
	Candidates(tx *Txn, t *timestamp.ShrinkingSet)

	// Commit settles the outcome as commit at ts and, on a Committed
	// answer, finishes the transaction on its keys: the writes are
	// durable — installed in the local store, decided by the remote
	// commitment object (§H.1) — the write locks are frozen at ts, and
	// when gc is set the read locks between each version read and ts are
	// frozen and every other lock is dropped (Alg. 1 lines 18, 22-26).
	// Only a remote backend answers Uncertain. The error explains an
	// Aborted or Uncertain answer; a Committed one has none to give.
	Commit(ctx context.Context, tx *Txn, ts timestamp.Timestamp, gc bool) (Outcome, error)

	// Abort settles the outcome as abort and drops the transaction's
	// unfrozen locks, or only its write locks (Alg. 1 lines 25-26).
	Abort(ctx context.Context, tx *Txn, writesOnly bool)
}

// ReadResult is the read step's outcome on one key.
type ReadResult struct {
	// Version is the version read; its TS is Zero for ⊥.
	Version version.Version
	// Got is the interval read-locked, from just above Version.TS; a
	// strict prefix of the request when nobody waits, possibly empty.
	Got timestamp.Interval
}

// Outcome is a backend's answer to a commit proposal.
type Outcome uint8

// Outcomes of Backend.Commit.
const (
	Committed Outcome = iota
	Aborted
	// Uncertain: the proposal left and no answer came back, so the
	// commitment object may have decided either way.
	Uncertain
)

// KeyErr names the key a step failed on — unless the batch of n keys is
// of one, whose failure the operation on that key reports.
func KeyErr(n int, key string, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("%q: %w", key, err)
}
