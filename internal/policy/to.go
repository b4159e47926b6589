package policy

import (
	"context"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// TO is the MVTL-TO policy (Alg. 8), which specializes MVTL to behave
// exactly like MVTO+ (Theorem 5): each transaction picks one timestamp
// at start, reads lock the interval from the version read up to that
// timestamp, writes lock nothing until commit, and commit write-locks
// exactly the transaction's timestamp without waiting.
//
// Like MVTO+, MVTL-TO does not garbage collect: read locks of finished
// transactions persist, playing the role of per-version read timestamps.
// This deliberately reproduces MVTO+'s ghost aborts (§5.5); use
// Ghostbuster to avoid them.
type TO struct {
	clk *clock.Process
	// gcOnCommit distinguishes Ghostbuster (true) from plain TO.
	gcOnCommit bool
	// waitCommitLocks makes commit-time write locks wait on unfrozen
	// conflicts (Ghostbuster, Alg. 10 line 15) instead of failing
	// immediately (TO, Alg. 8 line 14).
	waitCommitLocks bool
	name            string
}

var _ core.Policy = (*TO)(nil)

// NewTO returns the MVTL-TO policy drawing timestamps from clk.
func NewTO(clk *clock.Process) *TO {
	return &TO{clk: clk, name: "mvtl-to"}
}

// NewGhostbuster returns the MVTL-Ghostbuster policy (Alg. 10): MVTL-TO
// plus garbage collection on commit and abort, which makes it immune to
// ghost aborts (Theorem 7).
func NewGhostbuster(clk *clock.Process) *TO {
	return &TO{clk: clk, gcOnCommit: true, waitCommitLocks: true, name: "mvtl-ghostbuster"}
}

// Name implements core.Policy.
func (p *TO) Name() string { return p.name }

// WriteLocks implements core.Policy: writes lock nothing until commit.
func (p *TO) WriteLocks(context.Context, *core.Txn, int32) error { return nil }

// Read implements core.Policy: read the latest versions before the
// transaction timestamp and read-lock up to it, waiting on unfrozen
// write locks.
func (p *TO) Read(ctx context.Context, tx *core.Txn, keys []int32) ([]core.ReadResult, error) {
	return tx.ReadLocks(ctx, keys, startTS(tx, p.clk), true)
}

// CommitLocks implements core.Policy: write-lock exactly the transaction
// timestamp on every written key, all or nothing — the engine's abort
// releases what a failed batch did acquire (Alg. 8 line 16).
func (p *TO) CommitLocks(ctx context.Context, tx *core.Txn) error {
	return writeLockAt(ctx, tx, startTS(tx, p.clk), p.waitCommitLocks)
}

// CommitTS implements core.Policy: commit at the transaction timestamp.
func (p *TO) CommitTS(tx *core.Txn, _ timestamp.Set) (timestamp.Timestamp, bool) {
	return startTS(tx, p.clk), true
}

// CommitGC implements core.Policy.
func (p *TO) CommitGC(*core.Txn) bool { return p.gcOnCommit }
