package server_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// The server decodes a request's keys as views of its frame, over
// scratch it reuses for the connection's next request (see connState).
// The tests here churn a connection — a hundred requests of other
// shapes, so the scratch is overwritten and the pooled frames go round —
// between the request that creates some state and the one that looks at
// it: whatever the server kept must be its own copy.

// churn pushes n no-wait requests of varying shapes through c on behalf
// of throwaway transactions, and drains their replies.
func churn(t *testing.T, c *rawClient, epoch uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := uint64(1000 + i)
		keys := make([]string, 1+i%5)
		for j := range keys {
			keys[j] = fmt.Sprintf("churn-%03d-%d", i, j)
		}
		var items []wire.WriteLockItem
		for _, k := range keys {
			items = append(items, wire.WriteLockItem{Key: k, Set: timestamp.NewSet(timestamp.Point(ts(int64(30 + i)))), Value: []byte(k)})
		}
		c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: txn, Epoch: epoch, Upper: ts(25), Keys: keys})
		c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: txn, Epoch: epoch, DecisionSrv: "elsewhere", Items: items})
		c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: txn, Epoch: epoch, Keys: keys})
	}
}

// TestParkedBatchKeepsItsRequest parks a waiting read-lock batch behind
// an unfrozen write lock and churns its connection before releasing the
// blocker. The keys the batch reads after it wakes are the ones it was
// sent with, not whatever the connection's scratch holds by then — and
// the wait-for edge exported meanwhile names the blocking key.
func TestParkedBatchKeepsItsRequest(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{Addr: "srv", Network: n, LockWaitTimeout: 30 * time.Second, WriteLockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := dialRaw(t, n, "srv")

	// Committed versions of pa and pb at 5, each with its own value.
	for _, k := range []string{"pa", "pb"} {
		set := timestamp.NewSet(timestamp.Point(ts(5)))
		c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: 10, DecisionSrv: "elsewhere", Items: []wire.WriteLockItem{{Key: k, Set: set, Value: []byte("value of " + k)}}})
		f := c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: 10, TS: ts(5), WriteKeys: []string{k}})
		if resp, err := wire.DecodeFreezeBatchResp(f.Body()); err != nil || resp.WriteAcks[0].Status != wire.StatusOK {
			t.Fatalf("freeze %s: %+v %v", k, resp, err)
		}
	}
	// Txn 1 holds an unfrozen write lock on the key the batch reads first.
	c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: 1, DecisionSrv: "elsewhere", Items: []wire.WriteLockItem{
		{Key: "blocked", Set: timestamp.NewSet(timestamp.Span(ts(10), ts(20))), Value: []byte("never committed")},
	}})

	parkedID := c.send(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Upper: ts(15), Wait: true, Keys: []string{"blocked", "pa", "pb"}})
	churn(t, c, 0, 100)

	// The batch runs on its own goroutine, which may not even have
	// started yet: poll until the server reports it parked.
	var edges []wire.WaitEdge
	for deadline := time.Now().Add(10 * time.Second); len(edges) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		graph, err := wire.DecodeWaitGraphResp(c.call(wire.TWaitGraphReq, nil).Body())
		if err != nil {
			t.Fatal(err)
		}
		edges = graph.Edges
	}
	if len(edges) != 1 || edges[0] != (wire.WaitEdge{Waiter: 2, Holder: 1, Key: "blocked"}) {
		t.Fatalf("wait-for edges while parked: %+v", edges)
	}

	releaseID := c.send(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 1, Keys: []string{"blocked"}})
	var parked *wire.FrameBuf
	for i := 0; i < 2; i++ {
		switch f := c.recv(); f.ID() {
		case parkedID:
			parked = f
		case releaseID:
		default:
			t.Fatalf("unexpected reply id %d", f.ID())
		}
	}
	var resp wire.ReadLockBatchResp
	if err := resp.DecodeInto(parked.Body()); err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 3 {
		t.Fatalf("parked batch: %+v %v", resp, err)
	}
	if r := resp.Results[0]; r.Status != wire.StatusOK || r.Value != nil || r.Got.IsEmpty() {
		t.Fatalf("blocked: %+v", r)
	}
	for i, k := range []string{"pa", "pb"} {
		if r := resp.Results[1+i]; r.Status != wire.StatusOK || r.VersionTS != ts(5) || string(r.Value) != "value of "+k {
			t.Fatalf("result %d should be the read of %s: %+v", 1+i, k, r)
		}
	}
}

// TestServerStateOutlivesRequestFrame checks the records a request
// leaves behind that name its key: the pending write, found again by
// the freeze that names the same key; the replication-log record of the
// install, served to a standby much later; and the lock table a read
// range is frozen in when the range — listed by a committed release, or
// by the share a decide carries — is the first the server hears of the
// key.
func TestServerStateOutlivesRequestFrame(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{Addr: "srv", Network: n, WriteLockTimeout: time.Minute, Repl: &server.ReplConfig{Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := dialRaw(t, n, "srv")

	const key, value = "the-key-that-must-survive", "the value that must survive"
	f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: 1, Epoch: 1, DecisionSrv: "elsewhere", Items: []wire.WriteLockItem{
		{Key: key, Set: timestamp.NewSet(timestamp.Point(ts(15))), Value: []byte(value)},
	}})
	if resp, err := wire.DecodeWriteLockBatchResp(f.Body()); err != nil || resp.Status != wire.StatusOK || resp.Results[0].Got.IsEmpty() {
		t.Fatalf("write-lock: %+v %v", resp, err)
	}
	churn(t, c, 1, 100)

	f = c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: 1, Epoch: 1, TS: ts(15), WriteKeys: []string{key}})
	if resp, err := wire.DecodeFreezeBatchResp(f.Body()); err != nil || len(resp.WriteAcks) != 1 || resp.WriteAcks[0].Status != wire.StatusOK {
		t.Fatalf("the freeze did not find the pending write under its key: %+v %v", resp, err)
	}
	churn(t, c, 1, 100)

	var tail wire.LogTailResp
	err = tail.DecodeInto(c.call(wire.TLogTailReq, wire.LogTailReq{Epoch: 1, From: 1, MaxRecords: 8}).Body())
	if err != nil || tail.Status != wire.StatusOK || len(tail.Records) != 1 {
		t.Fatalf("log tail: %+v %v", tail, err)
	}
	if r := tail.Records[0]; string(r.Key) != key || string(r.Value) != value || r.TS != ts(15) {
		t.Fatalf("replicated record: key %q value %q at %v", r.Key, r.Value, r.TS)
	}
	f = c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Epoch: 1, Upper: ts(100), Keys: []string{key}})
	var read wire.ReadLockBatchResp
	if err := read.DecodeInto(f.Body()); err != nil || string(read.Results[0].Value) != value {
		t.Fatalf("read back: %+v %v", read, err)
	}

	// A key that exists from here on under the name a Reads view gave
	// it: were the name a view still, the churned frames would have
	// rewritten it, and the next request to name the key would miss it
	// and make another.
	const viaRelease, viaDecide = "a-key-first-named-by-a-release", "a-key-first-named-by-a-decide"
	span := func(k string) []wire.FreezeReadItem {
		return []wire.FreezeReadItem{{Key: k, Lo: ts(10), Hi: ts(20)}}
	}
	c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 3, Epoch: 1, Committed: true, TS: ts(20), Reads: span(viaRelease)})
	c.call(wire.TDecideReq, wire.DecideReq{Txn: 4, Epoch: 1, Proposal: wire.DecideCommit, TS: ts(20), Reads: span(viaDecide)})
	named := stats(t, c).Keys
	churn(t, c, 1, 100) // over the keys the churns above made
	c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 5, Epoch: 1, Upper: ts(100), Keys: []string{viaRelease, viaDecide}})
	if again := stats(t, c).Keys; again != named {
		t.Fatalf("%d keys, %d before the two were named again: a key was kept under a borrowed name", again, named)
	}
}
