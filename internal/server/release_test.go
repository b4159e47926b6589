package server_test

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// writeLock write-locks set on key for txn, buffering value — a batch of
// one naming decisionSrv — and returns what was granted.
func (c *rawClient) writeLock(txn uint64, decisionSrv, key string, set timestamp.Set, value string) timestamp.Set {
	c.t.Helper()
	f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: txn, DecisionSrv: decisionSrv, Items: []wire.WriteLockItem{
		{Key: key, Set: set, Value: []byte(value)},
	}})
	resp, err := wire.DecodeWriteLockBatchResp(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
		c.t.Fatalf("write-lock batch of one: %+v %v", resp, err)
	}
	return resp.Results[0].Got
}

// writable reports whether a transaction of its own can write-lock key
// at the single timestamp at; it leaves nothing behind.
func (c *rawClient) writable(txn uint64, key string, at timestamp.Timestamp) bool {
	c.t.Helper()
	got := c.writeLock(txn, "elsewhere", key, timestamp.NewSet(timestamp.Point(at)), "probe")
	c.release(txn, key)
	return !got.IsEmpty()
}

// TestCommittedReleaseIsCompleteAndIdempotent: the committed release is
// the one message a commit's tail sends a server, so on a server that
// never saw a freeze it must do all of the commit — install the pending
// write at the commit timestamp, freeze exactly the read ranges it
// lists, drop the rest, finish the record — and doing it twice (the
// fault bed's chaos duplicates frames) must change nothing.
func TestCommittedReleaseIsCompleteAndIdempotent(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	// Txn 1 read ra and rb up to 50 and wrote w; it commits at 20, and
	// read rb too late to need it frozen (say, above the commit point).
	for _, k := range []string{"ra", "rb"} {
		if r := c.readLock(1, k, ts(50)); r.Status != wire.StatusOK || r.Got.IsEmpty() {
			t.Fatalf("read-lock %s: %+v", k, r)
		}
	}
	if got := c.writeLock(1, "elsewhere", "w", timestamp.NewSet(timestamp.Span(ts(10), ts(40))), "written"); got.IsEmpty() {
		t.Fatal("write-lock on w: nothing granted")
	}
	if st := stats(t, c); st.LiveTxns != 1 {
		t.Fatalf("before the release: %d live transactions, want txn 1's record", st.LiveTxns)
	}
	release := wire.ReleaseBatchReq{
		Txn: 1, Committed: true, TS: ts(20), Keys: []string{"w", "ra", "rb"},
		Reads: []wire.FreezeReadItem{{Key: "ra", Lo: timestamp.Zero.Next(), Hi: ts(20)}},
	}
	deliver := func() wire.StatsResp {
		t.Helper()
		if ack, err := wire.DecodeAck(c.call(wire.TReleaseBatchReq, release).Body()); err != nil || ack.Status != wire.StatusOK {
			t.Fatalf("committed release: %+v %v", ack, err)
		}
		return stats(t, c)
	}
	check := func(when string) {
		t.Helper()
		if r := c.readLock(2, "w", ts(100)); r.VersionTS != ts(20) || string(r.Value) != "written" {
			t.Fatalf("%s: w reads %q at %v, want the pending write installed at 20", when, r.Value, r.VersionTS)
		}
		c.release(2, "w")
		for _, probe := range []struct {
			key  string
			at   int64
			want bool
			why  string
		}{
			{"ra", 15, false, "inside the frozen read range"},
			{"ra", 30, true, "above the frozen read range: that part of the read lock was dropped"},
			{"rb", 15, true, "rb's range was not listed: dropped, not frozen"},
			{"w", 20, false, "the write lock is frozen at the commit timestamp"},
			{"w", 30, true, "the rest of the write lock was dropped"},
		} {
			if got := c.writable(3, probe.key, ts(probe.at)); got != probe.want {
				t.Errorf("%s: write-lock %s at %d granted=%v, want %v (%s)", when, probe.key, probe.at, got, probe.want, probe.why)
			}
		}
	}

	first := deliver()
	if first.LiveTxns != 0 || first.LockEntries != first.FrozenLocks {
		t.Fatalf("after the release: %d live transactions, %d lock entries of which %d frozen; want the record finished and nothing unfrozen",
			first.LiveTxns, first.LockEntries, first.FrozenLocks)
	}
	check("after the release")
	before := stats(t, c) // the probes leave finished records of their own behind
	if again := deliver(); again != before {
		t.Fatalf("the same release delivered twice changed the server:\n once  %+v\n twice %+v", before, again)
	}
	check("after the duplicate")
}

// TestDecideCarriesTheDecisionServersShare: the release batch riding a
// DecideReq is served when the proposal wins — the decision installs the
// writes, the share freezes the reads and drops the rest, one frame ends
// the transaction here — and not at all when it loses.
func TestDecideCarriesTheDecisionServersShare(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	prepare := func(txn uint64, r, w string) wire.DecideReq {
		t.Helper()
		if res := c.readLock(txn, r, ts(50)); res.Status != wire.StatusOK || res.Got.IsEmpty() {
			t.Fatalf("read-lock %s: %+v", r, res)
		}
		if got := c.writeLock(txn, "srv", w, timestamp.NewSet(timestamp.Span(ts(10), ts(40))), "written"); got.IsEmpty() {
			t.Fatalf("write-lock on %s: nothing granted", w)
		}
		return wire.DecideReq{
			Txn: txn, Proposal: wire.DecideCommit, TS: ts(20), Keys: []string{w, r},
			Reads: []wire.FreezeReadItem{{Key: r, Lo: timestamp.Zero.Next(), Hi: ts(20)}},
		}
	}
	decide := func(req wire.DecideReq) wire.DecisionKind {
		t.Helper()
		resp, err := wire.DecodeDecideResp(c.call(wire.TDecideReq, req).Body())
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("decide: %+v %v", resp, err)
		}
		return resp.Kind
	}

	// The proposal wins: one frame, and txn 1 is over on this server.
	if kind := decide(prepare(1, "r1", "w1")); kind != wire.DecideCommit {
		t.Fatalf("decision %v, want commit", kind)
	}
	if st := stats(t, c); st.LiveTxns != 0 || st.LockEntries != st.FrozenLocks {
		t.Fatalf("after the decide: %d live transactions, %d lock entries of which %d frozen; want the record finished and nothing unfrozen",
			st.LiveTxns, st.LockEntries, st.FrozenLocks)
	}
	if r := c.readLock(2, "w1", ts(100)); r.VersionTS != ts(20) || string(r.Value) != "written" {
		t.Fatalf("w1 reads %q at %v, want the write installed at 20", r.Value, r.VersionTS)
	}
	c.release(2, "w1")
	if c.writable(3, "r1", ts(15)) || !c.writable(3, "r1", ts(30)) {
		t.Fatal("r1: want its read range frozen up to the commit timestamp and dropped above it")
	}

	// The proposal loses to an abort that got there first (a suspicious
	// server's): none of the share is applied. The abort itself dropped
	// the write lock; the read lock stays as it was, unfrozen, until the
	// coordinator's own abort releases it.
	req := prepare(4, "r4", "w4")
	if kind := decide(wire.DecideReq{Txn: 4, Proposal: wire.DecideAbort}); kind != wire.DecideAbort {
		t.Fatalf("decision %v, want abort", kind)
	}
	before := stats(t, c)
	if kind := decide(req); kind != wire.DecideAbort {
		t.Fatalf("decision %v for the late commit proposal, want the abort it lost to", kind)
	}
	after := stats(t, c)
	after.PurgedTxns = before.PurgedTxns // any decide on a forgotten transaction makes a record and purges it
	if after != before {
		t.Fatalf("a losing proposal's share was applied:\n before %+v\n after  %+v", before, after)
	}
	if r := c.readLock(5, "w4", ts(100)); r.VersionTS != timestamp.Zero || r.Value != nil {
		t.Fatalf("w4 reads %q at %v: an aborted write was installed", r.Value, r.VersionTS)
	}
	c.release(5, "w4")
	if c.writable(6, "r4", ts(15)) {
		t.Fatal("r4: txn 4's read lock is gone, though the share that would drop it was not applied")
	}
	// The abort proposal carries the same share as a plain release.
	if kind := decide(wire.DecideReq{Txn: 4, Proposal: wire.DecideAbort, Keys: req.Keys}); kind != wire.DecideAbort {
		t.Fatalf("decision %v, want abort", kind)
	}
	if !c.writable(6, "r4", ts(15)) {
		t.Fatal("r4: the abort proposal's share did not release txn 4's read lock")
	}
}
