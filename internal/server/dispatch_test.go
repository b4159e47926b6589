package server_test

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestNoWaitLockRequestsKeepConnectionOrder pins the dispatch contract
// for lock requests that cannot park: they are served on the read loop,
// so on one connection they take effect, and are answered, in arrival
// order relative to the casts around them. A read-lock sent right behind
// a freeze observes the frozen version; a release sent right behind a
// read-lock drops exactly that lock (served off the loop, the read-lock
// could run after the release and leak its lock until purge).
func TestNoWaitLockRequestsKeepConnectionOrder(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	// Txn 1 write-locks x at exactly its commit timestamp; its
	// commitment object lives elsewhere, so the freeze below — not a
	// decide — is what installs the value.
	set := timestamp.NewSet(timestamp.Point(ts(15)))
	f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn: 1, DecisionSrv: "elsewhere", Items: []wire.WriteLockItem{{Key: "x", Set: set, Value: []byte("v1")}},
	})
	if resp, err := wire.DecodeWriteLockBatchResp(f.Body()); err != nil || resp.Status != wire.StatusOK || !resp.Results[0].Got.Equal(set) {
		t.Fatalf("write-lock: %+v %v", resp, err)
	}

	// Freeze, read-lock by txn 2, release by txn 2: three frames sent
	// before any reply is read.
	freezeID := c.send(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: 1, TS: ts(15), WriteKeys: []string{"x"}})
	readID := c.send(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Upper: ts(100), Keys: []string{"x"}})
	releaseID := c.send(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 2, Keys: []string{"x"}})

	if f := c.recv(); f.ID() != freezeID {
		t.Fatalf("first reply has id %d, want the freeze's %d", f.ID(), freezeID)
	}
	f = c.recv()
	if f.ID() != readID {
		t.Fatalf("second reply has id %d, want the read-lock's %d", f.ID(), readID)
	}
	var read wire.ReadLockBatchResp
	err := read.DecodeInto(f.Body())
	if err != nil || read.Status != wire.StatusOK || len(read.Results) != 1 {
		t.Fatalf("read-lock: %+v %v", read, err)
	}
	if r := read.Results[0]; r.Status != wire.StatusOK || r.VersionTS != ts(15) || string(r.Value) != "v1" || r.Got.IsEmpty() {
		t.Fatalf("read-lock behind a freeze must see the frozen version: %+v", r)
	}
	if f := c.recv(); f.ID() != releaseID {
		t.Fatalf("third reply has id %d, want the release's %d", f.ID(), releaseID)
	}

	// Only txn 1's frozen write lock is left on x: txn 2's read lock,
	// granted and released in that order, is gone.
	if st := stats(t, c); st.LockEntries != 1 || st.FrozenLocks != 1 {
		t.Fatalf("the pipelined release left txn 2's read lock behind: %+v", st)
	}
}

// TestWaitingLockRequestLeavesReadLoop pins the other half: a lock
// request that may park is served off the read loop. Here the release
// that unparks a waiting read-lock arrives behind it on the same
// connection; were the waiter holding the loop, the release would sit
// unread until the lock-wait timeout and the read would come back as a
// conflict.
func TestWaitingLockRequestLeavesReadLoop(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn: 1, DecisionSrv: "elsewhere", Items: []wire.WriteLockItem{{Key: "x", Set: set, Value: []byte("v1")}},
	})
	if resp, err := wire.DecodeWriteLockBatchResp(f.Body()); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("write-lock: %+v %v", resp, err)
	}

	start := time.Now()
	readID := c.send(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Upper: ts(15), Wait: true, Keys: []string{"x"}})
	releaseID := c.send(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 1, Keys: []string{"x"}})

	if f := c.recv(); f.ID() != releaseID {
		t.Fatalf("first reply has id %d, want the release's %d: the parked read-lock stalled the connection", f.ID(), releaseID)
	}
	f = c.recv()
	if f.ID() != readID {
		t.Fatalf("second reply has id %d, want the read-lock's %d", f.ID(), readID)
	}
	var read wire.ReadLockBatchResp
	err := read.DecodeInto(f.Body())
	if err != nil || read.Status != wire.StatusOK || len(read.Results) != 1 {
		t.Fatalf("read-lock: %+v %v", read, err)
	}
	if r := read.Results[0]; r.Status != wire.StatusOK || r.Got.IsEmpty() {
		t.Fatalf("the release should have unparked the read-lock: %+v", r)
	}
	// startServer's lock-wait timeout is 200ms; an unparked waiter
	// answers long before it.
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("read-lock answered after %v: it waited out the lock-wait timeout", elapsed)
	}
}

func stats(t *testing.T, c *rawClient) wire.StatsResp {
	t.Helper()
	st, err := wire.DecodeStatsResp(c.call(wire.TStatsReq, nil).Body())
	if err != nil {
		t.Fatal(err)
	}
	return st
}
