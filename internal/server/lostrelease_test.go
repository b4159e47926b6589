package server

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestLostCommittedReleaseLeavesKeyUsable: a transaction write-locks
// [10,40] on x at a participant, and its decision server decides commit
// at 20. The committed release to the participant is lost. One
// WriteLockTimeout later the participant's suspicion scanner learns the
// outcome from the decision server — a decision that names no keys —
// and ends the transaction: the write is installed and frozen at 20,
// and the rest of its lock goes with it. The key must then read the
// version and take a new write above it, and hold no unfrozen write
// record. Before the fix, [10,19] and [21,40] stayed locked for good,
// and every fresh read of x aborted.
func TestLostCommittedReleaseLeavesKeyUsable(t *testing.T) {
	v := clock.NewVirtual()
	v.Register() // this goroutine is the timeline's root actor
	t.Cleanup(v.Unregister)
	const timeout = time.Second
	net := transport.NewMemSeededTimers(transport.LatencyModel{}, 1, v)
	start := func(addr string) *Server {
		t.Helper()
		s, err := New(Config{
			Addr:             addr,
			Network:          net,
			Timers:           v,
			WriteLockTimeout: timeout,
			ScanInterval:     time.Hour, // the test scans by hand
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	decider, part := start("decider"), start("participant")

	var sink wire.FrameBuf
	reply := func(mt wire.MsgType, m wire.Message) {
		if err := sink.SetFrame(1, mt, m); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(s *Server, mt wire.MsgType, m wire.Message) []byte {
		t.Helper()
		var f wire.FrameBuf
		if err := f.SetFrame(1, mt, m); err != nil {
			t.Fatal(err)
		}
		if (&connState{s: s}).dispatch(&f, reply) != nil {
			t.Fatal("a no-wait request left the read loop")
		}
		return sink.Body()
	}
	at := func(t int64) timestamp.Timestamp { return timestamp.New(t, 0) }
	writeLock := func(txn uint64, iv timestamp.Interval) timestamp.Set {
		t.Helper()
		var resp wire.WriteLockBatchResp
		err := resp.DecodeInto(serve(part, wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
			Txn: txn, DecisionSrv: decider.Addr(), Items: []wire.WriteLockItem{{Key: "x", Set: timestamp.NewSet(iv), Value: []byte("v")}},
		}))
		if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("transaction %d's write lock on x: %+v %v", txn, resp, err)
		}
		return resp.Results[0].Got
	}
	unfrozenWrites := func() (n int) {
		for _, e := range part.keys.Key("x").Locks.Snapshot() {
			if e.Mode == lock.ModeWrite && !e.Frozen {
				n++
			}
		}
		return n
	}

	const txn = 1
	if got := writeLock(txn, timestamp.Span(at(10), at(40))); got.IsEmpty() {
		t.Fatal("nothing granted")
	}
	d, err := wire.DecodeDecideResp(serve(decider, wire.TDecideReq, wire.DecideReq{Txn: txn, Proposal: wire.DecideCommit, TS: at(20)}))
	if err != nil || d.Status != wire.StatusOK || d.Kind != wire.DecideCommit {
		t.Fatalf("decide: %+v %v", d, err)
	}
	// The committed release to the participant is lost.
	v.Sleep(timeout)
	part.scanOnce()
	if live := part.LiveTxns(); live != 0 {
		t.Fatalf("%d records live after the scan", live)
	}
	if n := unfrozenWrites(); n != 0 {
		t.Fatalf("%d unfrozen write records on x after the scan ended the committed transaction: %v", n, part.keys.Key("x").Locks.Snapshot())
	}

	var r wire.ReadLockBatchResp
	if err := r.DecodeInto(serve(part, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Upper: at(100), Keys: []string{"x"}})); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("read-lock: %+v %v", r, err)
	}
	if res := r.Results[0]; res.VersionTS != at(20) || res.Got != timestamp.Span(at(20).Next(), at(100)) {
		t.Fatalf("x reads the version at %v with %v locked, want the version at 20 and (20, 100]", res.VersionTS, res.Got)
	}
	serve(part, wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 2, Keys: []string{"x"}})
	if got := writeLock(3, timestamp.Span(at(30), at(40))); !got.Equal(timestamp.NewSet(timestamp.Span(at(30), at(40)))) {
		t.Fatalf("a rewrite of x over [30,40] got %v", got)
	}
}
