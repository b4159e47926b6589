package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

func newTO(t *testing.T) *core.DB {
	t.Helper()
	var src clock.Logical
	return core.New(policy.NewTO(clock.NewProcess(&src, 1)), core.Options{})
}

func TestReadWriteCommitRoundtrip(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()

	tx1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write(ctx, "x", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if !tx1.Committed() {
		t.Fatal("tx1 should be committed")
	}

	tx2, _ := db.Begin(ctx)
	got, err := tx2.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	if err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnwrittenKeyIsBottom(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	tx, _ := db.Begin(ctx)
	v, err := tx.Read(ctx, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("unwritten key must read ⊥ (nil), got %q", v)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	tx, _ := db.Begin(ctx)
	if err := tx.Write(ctx, "x", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "mine" {
		t.Fatalf("read-your-writes broken: %q", v)
	}
}

func TestWriteOverwriteInSameTxn(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	tx, _ := db.Begin(ctx)
	_ = tx.Write(ctx, "x", []byte("a"))
	_ = tx.Write(ctx, "x", []byte("b"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin(ctx)
	v, _ := tx2.Read(ctx, "x")
	if string(v) != "b" {
		t.Fatalf("got %q", v)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	tx, _ := db.Begin(ctx)
	_ = tx.Write(ctx, "x", []byte("secret"))
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if !tx.Aborted() {
		t.Fatal("should be aborted")
	}
	tx2, _ := db.Begin(ctx)
	if v, _ := tx2.Read(ctx, "x"); v != nil {
		t.Fatalf("aborted write visible: %q", v)
	}
}

func TestOperationsAfterFinishFail(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	tx, _ := db.Begin(ctx)
	_ = tx.Commit(ctx)
	if _, err := tx.Read(ctx, "x"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("Read after commit: %v", err)
	}
	if err := tx.Write(ctx, "x", nil); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("Write after commit: %v", err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("Commit after commit: %v", err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatalf("Abort after commit must be a no-op: %v", err)
	}
}

func TestAbortIdempotent(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	tx, _ := db.Begin(ctx)
	_ = tx.Abort(ctx)
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCommitConflictAborts(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()

	// t1 gets the earlier timestamp (logical clock).
	t1, _ := db.Begin(ctx)
	t2, _ := db.Begin(ctx)

	// Force policy timestamps in order: read from each to fix them.
	if _, err := t1.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	// t2 reads x, locking up to its (later) timestamp.
	if _, err := t2.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// t1 now writes x at its earlier timestamp: blocked by t2's read lock.
	if err := t1.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	err := t1.Commit(ctx)
	if !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if !t1.Aborted() {
		t.Fatal("t1 must be aborted")
	}
}

func TestTxnIDsUnique(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		tx, _ := db.Begin(ctx)
		if seen[tx.ID()] {
			t.Fatalf("duplicate txn id %d", tx.ID())
		}
		seen[tx.ID()] = true
		_ = tx.Abort(ctx)
	}
}

func TestBeginRespectsContext(t *testing.T) {
	db := newTO(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Begin(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

func TestStateStatsAndPurge(t *testing.T) {
	db := newTO(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		tx, _ := db.Begin(ctx)
		_ = tx.Write(ctx, "k", []byte{byte(i)})
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := db.StateStats()
	if st.Keys != 1 {
		t.Fatalf("Keys = %d", st.Keys)
	}
	if st.Versions != 11 { // 10 writes + initial ⊥
		t.Fatalf("Versions = %d", st.Versions)
	}
	if st.FrozenLockEntries != 10 {
		t.Fatalf("FrozenLockEntries = %d", st.FrozenLockEntries)
	}
	vRemoved, lRemoved := db.PurgeBelow(timestamp.New(1<<40, 0))
	if vRemoved == 0 || lRemoved == 0 {
		t.Fatalf("purge removed %d versions %d locks", vRemoved, lRemoved)
	}
	st = db.StateStats()
	if st.Versions != 1 {
		t.Fatalf("after purge Versions = %d", st.Versions)
	}
}

func TestPurgedReadAborts(t *testing.T) {
	var src clock.Manual
	db := core.New(policy.NewTO(clock.NewProcess(&src, 1)), core.Options{})
	ctx := context.Background()

	src.Set(10)
	tx, _ := db.Begin(ctx)
	_ = tx.Write(ctx, "x", []byte("old"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	src.Set(100)
	tx2, _ := db.Begin(ctx)
	_ = tx2.Write(ctx, "x", []byte("new"))
	if err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	db.PurgeBelow(timestamp.New(50, 0))

	// A transaction whose timestamp falls at or below the kept boundary
	// version needs the purged region and must abort.
	tx3, _ := db.Begin(ctx)
	tx3.SetClock(clock.NewProcess(func() *clock.Manual { var m clock.Manual; m.Set(5); return &m }(), 3))
	if _, err := tx3.Read(ctx, "x"); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("read of purged region must abort, got %v", err)
	}
}

func TestKVAdapter(t *testing.T) {
	db := newTO(t)
	var kvdb kv.DB = db.KV()
	ctx := context.Background()
	tx, err := kvdb.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderReceivesCommits(t *testing.T) {
	var rec history.Recorder
	var src clock.Logical
	db := core.New(policy.NewTO(clock.NewProcess(&src, 1)), core.Options{Recorder: &rec})
	ctx := context.Background()
	tx, _ := db.Begin(ctx)
	_, _ = tx.Read(ctx, "a")
	_ = tx.Write(ctx, "b", []byte("1"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("recorded %d commits", rec.Len())
	}
	c := rec.Commits()[0]
	if len(c.Reads) != 1 || c.Reads[0].Key != "a" || len(c.WriteKeys) != 1 || c.WriteKeys[0] != "b" {
		t.Fatalf("commit footprint = %+v", c)
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBlindWritesDoNotConflict(t *testing.T) {
	// Multiversion protocols commit concurrent blind writes (§8.4.2):
	// each transaction writes at its own timestamp.
	db := newTO(t)
	ctx := context.Background()
	t1, _ := db.Begin(ctx)
	t2, _ := db.Begin(ctx)
	_ = t1.Write(ctx, "x", []byte("a"))
	_ = t2.Write(ctx, "x", []byte("b"))
	if err := t2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedTxnHoldsNoScratch checks the pool's rule: once a
// transaction has committed or aborted it can reach nothing that is
// pooled, so whatever is done to it afterwards cannot disturb the
// transaction its scratch went to — and what it still reports is its
// own: its id, its outcome and CommitTS. Its footprint went back to the
// pool with the scratch, emptied, so it reports none, and in particular
// none of the keys of the transaction that took the scratch over. It
// holds on either backend: the in-process store's, and the
// coordinator's over one Mem server, whose state for the transaction
// rides the scratch too — the backend itself is the engine's, which
// every transaction of the client shares. The policy's state rides the
// scratch as well, marked as the holder's until it finishes. (The
// server-side twin is TestServerStateOutlivesRequestFrame.)
func TestFinishedTxnHoldsNoScratch(t *testing.T) {
	for _, outcome := range []string{"committed", "aborted"} {
		t.Run(outcome, func(t *testing.T) {
			for _, backend := range []string{"local", "remote"} {
				t.Run(backend, func(t *testing.T) { finishedTxnHoldsNoScratch(t, outcome, backend) })
			}
		})
	}
}

func finishedTxnHoldsNoScratch(t *testing.T, outcome, backend string) {
	var ticks clock.Manual
	ticks.Set(1000)
	ctx := context.Background()
	db := core.New(policy.NewTIL(clock.NewProcess(&ticks, 1), 100, policy.CommitEarly, true), core.Options{}).KV()
	if backend == "remote" {
		n := transport.NewMem(transport.LatencyModel{})
		srv, err := server.New(server.Config{Addr: "s0", Network: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cl, err := client.New(client.Config{ID: 1, Servers: []string{"s0"}, Network: n, Mode: client.ModeTILEarly, Delta: 100, Clock: &ticks})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		db = cl
	}
	begin := func() *core.Txn {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tx.(*core.Txn)
	}

	a := begin()
	if _, err := a.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(ctx, "y", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	aScratch := core.ScratchOf(a)
	if aScratch == nil || !core.PolicyUsed(aScratch) {
		t.Fatal("a running MVTIL transaction holds a scratch, marked as holding its interval")
	}
	if (aScratch.Backend != nil) != (backend == "remote") {
		t.Fatalf("a running transaction's scratch holds backend state %T; want the coordinator's, and none of the local store's", aScratch.Backend)
	}
	aID := a.ID()
	var aCommitTS timestamp.Timestamp
	if outcome == "committed" {
		if err := a.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		aCommitTS = a.CommitTS
	} else if err := a.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if core.ScratchOf(a) != nil {
		t.Fatalf("the %s transaction still holds scratch %p", outcome, core.ScratchOf(a))
	}
	if core.PolicyUsed(aScratch) {
		t.Fatalf("the %s transaction handed its scratch back marked as holding its interval", outcome)
	}
	noFootprint := func(when string) {
		t.Helper()
		if a.Len() != 0 || len(a.ReadSet()) != 0 || len(a.WriteKeys()) != 0 {
			t.Fatalf("%s, the %s transaction reports a footprint of %d keys: ReadSet %v, WriteKeys %v", when, outcome, a.Len(), a.ReadSet(), a.WriteKeys())
		}
	}
	noFootprint("once finished")

	// b takes over a's scratch (the pool may hand out another
	// under the race detector, which changes nothing below).
	ticks.Advance(10_000)
	b := begin()
	if _, err := b.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(ctx, "z", []byte("from b")); err != nil {
		t.Fatal(err)
	}
	if got := core.ScratchOf(b); got != aScratch {
		t.Logf("b runs on scratch %p, a ran on %p", got, aScratch)
	}
	if b.Len() != 2 || b.KeyName(0) != "x" || b.KeyName(1) != "z" {
		t.Fatalf("b's footprint: %d keys, ReadSet %v, WriteKeys %v", b.Len(), b.ReadSet(), b.WriteKeys())
	}
	bInterval := *core.ScratchOf(b).Policy.(*timestamp.ShrinkingSet)

	// Every method of the finished a: refused, or answered from
	// a's own memory.
	if _, err := a.Read(ctx, "x"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("Read on the %s transaction: %v", outcome, err)
	}
	if err := a.Write(ctx, "z", nil); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("Write on the %s transaction: %v", outcome, err)
	}
	if err := a.Commit(ctx); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("Commit on the %s transaction: %v", outcome, err)
	}
	if err := a.Abort(ctx); err != nil {
		t.Fatalf("Abort on the %s transaction: %v", outcome, err)
	}
	a.SetClock(clock.NewProcess(&ticks, 9))
	if a.Committed() != (outcome == "committed") || a.Aborted() != (outcome == "aborted") {
		t.Fatalf("the %s transaction reports committed=%v aborted=%v", outcome, a.Committed(), a.Aborted())
	}
	if a.ID() != aID || a.CommitTS != aCommitTS {
		t.Fatalf("id moved from %d to %d, CommitTS from %v to %v", aID, a.ID(), aCommitTS, a.CommitTS)
	}
	noFootprint("with b running on the pooled scratch")
	if core.ScratchOf(a) != nil {
		t.Fatal("the finished transaction took a scratch again")
	}

	// None of which b noticed.
	if got := core.ScratchOf(b).Policy.(*timestamp.ShrinkingSet).Set(); !got.Equal(bInterval.Set()) || got.IsEmpty() {
		t.Fatalf("b's interval went from %v to %v", bInterval.Set(), got)
	}
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if min, _ := bInterval.Set().Min(); b.CommitTS != min {
		t.Fatalf("b committed at %v, want the bottom %v of its interval", b.CommitTS, min)
	}
}

// TestFootprintIndex: past footIndexAt keys a transaction finds its
// footprint entries through an index rather than by scanning, and the
// index agrees with the order of first use. The second transaction runs
// on the scratch the first handed back, whose index must start empty.
func TestFootprintIndex(t *testing.T) {
	const nkeys = 100
	db := newTO(t)
	ctx := context.Background()
	for _, prefix := range []string{"key", "other"} {
		tx, _ := db.Begin(ctx)
		for round := 0; round < 2; round++ { // the second round overwrites in place
			for i := 0; i < nkeys; i++ {
				if round == 0 && i == 8 && core.IndexLen(tx) != 0 {
					t.Fatalf("a footprint of %d keys has an index", tx.Len())
				}
				if err := tx.Write(ctx, fmt.Sprintf("%s-%03d", prefix, i), []byte{byte(round)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tx.Len() != nkeys || len(tx.WriteKeys()) != nkeys || core.IndexLen(tx) != nkeys {
			t.Fatalf("foot=%d writeOrder=%d index=%d, want %d each", tx.Len(), len(tx.WriteKeys()), core.IndexLen(tx), nkeys)
		}
		for i := 0; i < nkeys; i++ {
			if k := fmt.Sprintf("%s-%03d", prefix, i); core.Entry(tx, k) != i || tx.KeyName(int32(i)) != k {
				t.Fatalf("entry(%q) = %d, position %d holds %q", k, core.Entry(tx, k), i, tx.KeyName(int32(i)))
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
