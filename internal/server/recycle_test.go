package server

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestRecycledTxnRecordStartsBlank: a collected transaction record is
// taken by the next transaction of its stripe, and must carry nothing of
// the last one. On a virtual timeline, transaction A write-locks — which
// stamps its suspicion clock and records this server as its decision
// server — and commits, and its record is collected. The timeline then
// moves past WriteLockTimeout, and transaction B, on A's stripe,
// write-locks naming no decision server. B gets A's record, with
// neither A's decision server nor A's suspicion clock: the next scan
// leaves B alone, where A's clock would have had it suspected and
// aborted at once.
func TestRecycledTxnRecordStartsBlank(t *testing.T) {
	v := clock.NewVirtual()
	v.Register() // this goroutine is the timeline's root actor
	t.Cleanup(v.Unregister)
	const timeout = time.Second
	s, err := New(Config{
		Addr:             "srv",
		Network:          transport.NewMemSeededTimers(transport.LatencyModel{}, 1, v),
		Timers:           v,
		WriteLockTimeout: timeout,
		ScanInterval:     time.Hour, // the test scans by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	c := &connState{s: s}
	var sink wire.FrameBuf
	reply := func(mt wire.MsgType, m wire.Message) {
		if err := sink.SetFrame(1, mt, m); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(mt wire.MsgType, m wire.Message) []byte {
		t.Helper()
		var f wire.FrameBuf
		if err := f.SetFrame(1, mt, m); err != nil {
			t.Fatal(err)
		}
		if c.dispatch(&f, reply) != nil {
			t.Fatal("a no-wait request left the read loop")
		}
		return sink.Body()
	}
	writeLock := func(txn uint64, key, decisionSrv string, at int64) {
		t.Helper()
		set := timestamp.NewSet(timestamp.Point(timestamp.New(at, 0)))
		var resp wire.WriteLockBatchResp
		err := resp.DecodeInto(serve(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
			Txn: txn, DecisionSrv: decisionSrv, Items: []wire.WriteLockItem{{Key: key, Set: set, Value: []byte("v")}},
		}))
		if err != nil || resp.Status != wire.StatusOK || resp.Results[0].Status != wire.StatusOK {
			t.Fatalf("transaction %d's write lock on %q: %+v %v", txn, key, resp, err)
		}
	}
	record := func(txn uint64) *txnState {
		st := s.txnStripeFor(txn)
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.txns[txn]
	}

	const a, b = 1, 1 + stripeCount // one stripe
	writeLock(a, "x", s.Addr(), 10)
	recA := record(a)
	if recA == nil || recA.firstWriteLock.IsZero() || recA.decisionSrv != s.Addr() {
		t.Fatalf("transaction A's record: %+v", recA)
	}
	serve(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: a, Committed: true, TS: timestamp.New(10, 0), Keys: []string{"x"}})
	if live := s.LiveTxns(); live != 0 {
		t.Fatalf("%d records live after A committed", live)
	}

	v.Sleep(2 * timeout)
	writeLock(b, "y", "", 20)
	recB := record(b)
	if recB != recA {
		t.Fatalf("transaction B's record %p is not A's collected %p: nothing was recycled", recB, recA)
	}
	if recB.decisionSrv != "" {
		t.Errorf("transaction B, which named no decision server, has A's: %q", recB.decisionSrv)
	}
	s.scanOnce()
	if rec := record(b); rec == nil || rec.finished {
		t.Errorf("the scan right after B's write lock suspected B (record %+v)", rec)
	}
}
