package server

import (
	"testing"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// inlineTxnAllocCeiling bounds what one transaction's three requests may
// allocate on the inline dispatch path of a warmed server. Measured 2
// when the gate was set, both of them state the transaction creates: its
// txnState record and the copy of its pending value. Decoding, the
// replies, the lock tables and the version list contribute nothing; a
// per-request allocation in any of them costs three here, a per-key one
// on the read side four, and either trips the gate.
const inlineTxnAllocCeiling = 3

// TestInlineDispatchAllocs drives one connection's dispatch directly,
// with pre-encoded frames, through transactions of three requests, what
// a garbage-collecting coordinator sends a server that is not its
// decision server: a no-wait read-lock batch over four keys, a
// write-lock batch, and the committed release that installs the write,
// freezes the read ranges and drops the rest.
func TestInlineDispatchAllocs(t *testing.T) {
	s, err := New(Config{Addr: "srv", Network: transport.NewMem(transport.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c := &connState{s: s}

	// Transaction i reads the four keys below 100i+99 and writes w at
	// 100i+50, so every transaction meets the versions and frozen locks
	// of the ones before it.
	const warmup, measured = 8, 100
	readKeys := []string{"r1", "r2", "r3", "r4"}
	allKeys := append([]string{"w"}, readKeys...)
	frame := func(mt wire.MsgType, m wire.Message) *wire.FrameBuf {
		fb := new(wire.FrameBuf)
		if err := fb.SetFrame(1, mt, m); err != nil {
			t.Fatal(err)
		}
		return fb
	}
	var txns [warmup + measured + 1][3]*wire.FrameBuf
	for i := range txns {
		txn, base := uint64(i+1), int64(100*(i+1))
		commit, upper := timestamp.New(base+50, 1), timestamp.New(base+99, 1)
		var reads []wire.FreezeReadItem
		for _, k := range readKeys {
			reads = append(reads, wire.FreezeReadItem{Key: k, Lo: timestamp.Zero.Next(), Hi: commit})
		}
		txns[i] = [3]*wire.FrameBuf{
			frame(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: txn, Upper: upper, Keys: readKeys}),
			frame(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: txn, DecisionSrv: "elsewhere", Items: []wire.WriteLockItem{
				{Key: "w", Set: timestamp.NewSet(timestamp.Span(timestamp.New(base, 1), upper)), Value: []byte("8 bytes.")},
			}}),
			frame(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: txn, Committed: true, TS: commit, Keys: allKeys, Reads: reads}),
		}
	}

	// Replies are encoded as rpc's sendReply encodes them, into one
	// reused buffer; sent says what to expect in it.
	var sink wire.FrameBuf
	var sent wire.MsgType
	reply := func(mt wire.MsgType, m wire.Message) {
		sent = mt
		if err := sink.SetFrame(1, mt, m); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	runTxn := func() {
		for _, f := range txns[next] {
			if parked := c.dispatch(f, reply); parked != nil {
				t.Fatal("a no-wait request left the read loop")
			}
		}
		// What the periodic purge does, so the tables keep their size.
		bound := timestamp.New(int64(100*next), 0)
		for _, k := range allKeys {
			ks := s.keys.Key(k)
			ks.Locks.PurgeFrozenBelow(bound)
			ks.Versions.PurgeBelow(bound)
		}
		next++
	}
	for next < warmup {
		i := next
		runTxn()
		if ack, err := wire.DecodeAck(sink.Body()); sent != wire.TReleaseBatchResp || err != nil || ack.Status != wire.StatusOK {
			t.Fatalf("release: %v %+v %v", sent, ack, err)
		}
		if v, ok := s.keys.Key("w").Versions.At(timestamp.New(int64(100*(i+1)+50), 1)); !ok || string(v.Value) != "8 bytes." {
			t.Fatalf("transaction %d did not install its write", i+1)
		}
		if st := s.keys.Key("r1").Locks.Stats(); st.Frozen == 0 {
			t.Fatalf("transaction %d did not freeze its read lock", i+1)
		}
	}
	if live := s.LiveTxns(); live != 0 {
		t.Fatalf("%d transaction records left behind", live)
	}
	if avg := testing.AllocsPerRun(measured, runTxn); avg > inlineTxnAllocCeiling {
		t.Errorf("one transaction through dispatch: %v allocs, ceiling %d", avg, inlineTxnAllocCeiling)
	} else {
		t.Logf("one transaction through dispatch: %v allocs (ceiling %d)", avg, inlineTxnAllocCeiling)
	}
}
