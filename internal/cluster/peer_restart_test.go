package cluster_test

import (
	"context"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestSuspicionReachesRestartedDecisionServer is the peer path's
// crash-restart contract: a server whose connection to a transaction's
// decision server died with that server's crash must reach the server's
// new incarnation on the same address when its suspicion scanner next
// proposes abort there. The restarted server answers the proposal, so
// the suspect's write locks go.
func TestSuspicionReachesRestartedDecisionServer(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	c, err := cluster.Start(cluster.Config{
		Servers: 2,
		Network: n,
		ServerConfig: server.Config{
			LockWaitTimeout:  100 * time.Millisecond,
			WriteLockTimeout: 100 * time.Millisecond,
			ScanInterval:     20 * time.Millisecond,
			PeerCallTimeout:  200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	decider, holder := c.Addrs()[0], c.Addrs()[1]
	ctx := context.Background()
	rpcTo := func(addr string) *rpc.Client {
		rc := rpc.NewClient(n, addr, 1)
		t.Cleanup(func() { _ = rc.Close() })
		return rc
	}
	toHolder := rpcTo(holder)
	at := timestamp.NewSet(timestamp.Span(timestamp.New(10, 0), timestamp.New(20, 0)))

	// writeLock asks the holder to write-lock key for txn, whose decision
	// server is decider, and reports whether the whole set was granted.
	writeLock := func(txn uint64, key string) bool {
		t.Helper()
		f, err := toHolder.Call(ctx, txn, wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
			Txn: txn, DecisionSrv: decider, Items: []wire.WriteLockItem{{Key: key, Set: at, Value: []byte("orphan")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		var resp wire.WriteLockBatchResp
		if err := resp.DecodeInto(f.Body()); err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("write-lock %q for txn %d: %+v %v", key, txn, resp, err)
		}
		return resp.Results[0].Status == wire.StatusOK && resp.Results[0].Got.Equal(at)
	}

	// orphan leaves txn's write lock on key at the holder with no
	// coordinator to finish it, waits until the holder's scanner has had
	// it aborted, and checks that the decider's commitment object for txn
	// is what decided abort: a commit proposal arriving now loses.
	orphan := func(txn uint64, key string) {
		t.Helper()
		if !writeLock(txn, key) {
			t.Fatalf("txn %d: %q not write-locked", txn, key)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !writeLock(txn+100, key) {
			if time.Now().After(deadline) {
				t.Fatalf("txn %d: the orphaned write lock on %q was never released", txn, key)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err := toHolder.Cast(txn+100, wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: txn + 100, Keys: []string{key}}); err != nil {
			t.Fatal(err)
		}
		f, err := rpcTo(decider).Call(ctx, txn, wire.TDecideReq, wire.DecideReq{Txn: txn, Proposal: wire.DecideCommit, TS: timestamp.New(15, 0)})
		if err != nil {
			t.Fatal(err)
		}
		d, err := wire.DecodeDecideResp(f.Body())
		f.Release()
		if err != nil || d.Status != wire.StatusOK || d.Kind != wire.DecideAbort {
			t.Fatalf("txn %d: the decider answers a late commit with %+v %v, want the scanner's abort", txn, d, err)
		}
	}

	// The first round dials the holder's peer connection to the decider.
	orphan(1, "a")
	if err := c.StopServer(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	// That connection died with the crash; the new incarnation starts
	// with no commitment objects, so only a proposal that reached it can
	// have decided txn 2.
	orphan(2, "b")
}
