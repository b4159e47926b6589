package server_test

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestDemotedHeadFencesLocksAndServesFreezes holds the rule
// cluster.Failover's drain rests on. A head that is demoted while a
// transaction it granted a write lock to is still in flight turns every
// new lock request away — whichever epoch it is stamped with — but
// still serves that transaction's freeze and release: the install
// reaches the replication log, where a standby's pull finds it, and the
// transaction record drains.
func TestDemotedHeadFencesLocksAndServesFreezes(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{Addr: "srv", Network: n, WriteLockTimeout: time.Minute, Repl: &server.ReplConfig{Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	writeLock := func(txn, epoch uint64, key string) wire.WriteLockBatchResp {
		t.Helper()
		// The commitment object lives on another partition's server, so
		// this server learns the outcome from the freeze batch alone.
		f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: txn, Epoch: epoch, DecisionSrv: "elsewhere",
			Items: []wire.WriteLockItem{{Key: key, Set: set, Value: []byte("v1")}}})
		resp, err := wire.DecodeWriteLockBatchResp(f.Body())
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	wrongEpochs := func() int64 {
		t.Helper()
		st, err := wire.DecodeStatsResp(c.call(wire.TStatsReq, nil).Body())
		if err != nil {
			t.Fatal(err)
		}
		return st.ReplWrongEpoch
	}

	// Transaction 1 takes its write lock under epoch 1.
	if resp := writeLock(1, 1, "x"); resp.Status != wire.StatusOK || len(resp.Results) != 1 || !resp.Results[0].Got.Equal(set) {
		t.Fatalf("write lock at the head's epoch: %+v", resp)
	}
	if live := srv.LiveTxns(); live != 1 {
		t.Fatalf("live transactions before the demotion = %d, want 1", live)
	}

	srv.Demote(2)
	if srv.IsHead() {
		t.Fatal("demoted server still thinks it serves the partition")
	}

	// New lock requests bounce, stamped with the old epoch or the new.
	fenced := wrongEpochs()
	for i, epoch := range []uint64{1, 2} {
		txn := uint64(10 + 2*i)
		if resp := writeLock(txn, epoch, "y"); resp.Status != wire.StatusWrongEpoch {
			t.Errorf("write-lock batch stamped %d on a demoted head: %+v, want StatusWrongEpoch", epoch, resp)
		}
		f := c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: txn + 1, Epoch: epoch, Upper: ts(100), Keys: []string{"x"}})
		var rresp wire.ReadLockBatchResp
		if err := rresp.DecodeInto(f.Body()); err != nil || rresp.Status != wire.StatusWrongEpoch {
			t.Errorf("read-lock batch stamped %d on a demoted head: %+v %v, want StatusWrongEpoch", epoch, rresp, err)
		}
	}
	if got := wrongEpochs() - fenced; got != 4 {
		t.Errorf("ReplWrongEpoch ticked %d times for 4 fenced batches", got)
	}

	// Transaction 1's freeze still installs and is logged.
	watermark := srv.LogWatermark()
	f := c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: 1, Epoch: 1, TS: ts(15), WriteKeys: []string{"x"}})
	fresp, err := wire.DecodeFreezeBatchResp(f.Body())
	if err != nil || fresp.Status != wire.StatusOK || len(fresp.WriteAcks) != 1 || fresp.WriteAcks[0].Status != wire.StatusOK {
		t.Fatalf("freeze batch on a demoted head: %+v %v", fresp, err)
	}
	if got := srv.LogWatermark(); got != watermark+1 {
		t.Fatalf("log watermark %d -> %d across the freeze, want +1", watermark, got)
	}
	// The standby's pull is unstamped (epoch 0), as in pullLoop.
	f = c.call(wire.TLogTailReq, wire.LogTailReq{From: watermark + 1, MaxRecords: 8})
	var tail wire.LogTailResp
	if err := tail.DecodeInto(f.Body()); err != nil || tail.Status != wire.StatusOK || len(tail.Records) != 1 {
		t.Fatalf("log tail from a demoted head: %+v %v", tail, err)
	}
	if r := tail.Records[0]; r.LSN != watermark+1 || string(r.Key) != "x" || r.TS != ts(15) || string(r.Value) != "v1" {
		t.Fatalf("log tail record = %+v, want x=v1 at %v, LSN %d", r, ts(15), watermark+1)
	}

	// And its release drains the transaction record.
	c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 1, Epoch: 1, Committed: true, TS: ts(15), Keys: []string{"x"}})
	if live := srv.LiveTxns(); live != 0 {
		t.Fatalf("live transactions after the release = %d, want 0", live)
	}
}
