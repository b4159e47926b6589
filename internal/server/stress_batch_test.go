package server_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestBatchedCommitAgainstSingleKeyRequests hammers the same small key
// space from two coordinator populations at once: timestamp-ordering
// clients whose commits travel as per-server write-lock/freeze/release
// batches, and MVTIL clients whose write path issues single-key
// requests. Run with -race this exercises the striped key/txn shards
// and both protocol generations against each other; the recorded
// history must stay serializable.
func TestBatchedCommitAgainstSingleKeyRequests(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	const servers = 3
	addrs := make([]string, servers)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("srv-%d", i)
		srv, err := server.New(server.Config{
			Addr:            addrs[i],
			Network:         n,
			LockWaitTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}

	var rec history.Recorder
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
	}
	newClient := func(id int32, mode client.Mode) *client.Client {
		cl, err := client.New(client.Config{
			ID: id, Servers: addrs, Network: n, Mode: mode, Recorder: &rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		return cl
	}

	const (
		coordinators = 4 // per population
		txnsPerCoord = 40
	)
	run := func(cl *client.Client, seed int) {
		ctx := context.Background()
		for i := 0; i < txnsPerCoord; i++ {
			tx, err := cl.Begin(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			// Touch an overlapping window of the hot keys: read two,
			// write three, spanning all servers.
			base := (seed + i) % len(keys)
			aborted := false
			for _, off := range []int{0, 3} {
				if _, err := tx.Read(ctx, keys[(base+off)%len(keys)]); err != nil {
					aborted = true
					break
				}
			}
			if !aborted {
				for _, off := range []int{1, 4, 6} {
					k := keys[(base+off)%len(keys)]
					if err := tx.Write(ctx, k, []byte(fmt.Sprintf("v%d-%d", seed, i))); err != nil {
						aborted = true
						break
					}
				}
			}
			if aborted {
				continue // Read/Write failures already aborted the txn
			}
			if err := tx.Commit(ctx); err != nil && !errors.Is(err, kv.ErrAborted) {
				t.Errorf("unexpected commit error: %v", err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < coordinators; c++ {
		batched := newClient(int32(100+c), client.ModeTO)
		single := newClient(int32(200+c), client.ModeTILEarly)
		wg.Add(2)
		go func(c int) { defer wg.Done(); run(batched, c) }(c)
		go func(c int) { defer wg.Done(); run(single, c+1) }(c)
	}
	wg.Wait()

	if rec.Len() == 0 {
		t.Fatal("no transaction committed under contention")
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
}

// TestServerWriteLockBatch drives the batch handler directly: one frame
// locks three keys, a conflicting key reports its denial in the per-key
// sub-result without failing the siblings.
func TestServerWriteLockBatch(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	// Txn 1 pre-locks key "b" at 5 so the batch below partially fails.
	pre := timestamp.NewSet(timestamp.Point(ts(5)))
	c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: 1, Key: "b", Set: pre, Value: []byte("pre")})

	set := timestamp.NewSet(timestamp.Span(ts(1), ts(10)))
	f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn:         2,
		DecisionSrv: "srv",
		Items: []wire.WriteLockItem{
			{Key: "a", Set: set, Value: []byte("va")},
			{Key: "b", Set: set, Value: []byte("vb")},
			{Key: "c", Set: set, Value: []byte("vc")},
		},
	})
	resp, err := wire.DecodeWriteLockBatchResp(f.Body())
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("%+v %v", resp, err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if !resp.Results[0].Got.Equal(set) || !resp.Results[2].Got.Equal(set) {
		t.Fatalf("full acquisitions mangled: %+v", resp.Results)
	}
	if resp.Results[1].Got.Contains(ts(5)) || !resp.Results[1].Denied.Contains(ts(5)) {
		t.Fatalf("conflicting key result wrong: %+v", resp.Results[1])
	}

	// Freeze batch commits txn 2 at 7 on all three keys.
	f = c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{
		Txn: 2, TS: ts(7), WriteKeys: []string{"a", "b", "c"},
	})
	fresp, err := wire.DecodeFreezeBatchResp(f.Body())
	if err != nil || fresp.Status != wire.StatusOK || len(fresp.WriteAcks) != 3 {
		t.Fatalf("%+v %v", fresp, err)
	}
	for i, ack := range fresp.WriteAcks {
		if ack.Status != wire.StatusOK {
			t.Fatalf("freeze of key %d failed: %+v", i, ack)
		}
	}
	// Release batch drops the leftovers.
	f = c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 2, Keys: []string{"a", "b", "c"}})
	if ack, err := wire.DecodeAck(f.Body()); err != nil || ack.Status != wire.StatusOK {
		t.Fatalf("%+v %v", ack, err)
	}

	// A later reader observes the batched commit on every key.
	for _, k := range []string{"a", "c"} {
		rresp := c.readLock(9, k, ts(100))
		if rresp.Status != wire.StatusOK {
			t.Fatalf("%+v", rresp)
		}
		if rresp.VersionTS != ts(7) || string(rresp.Value) != "v"+k {
			t.Fatalf("read %q: value %q at %v", k, rresp.Value, rresp.VersionTS)
		}
	}
}

// TestServerFreezeBatchWithoutPendingFails mirrors the single-key freeze
// misuse test for the batched handler.
func TestServerFreezeBatchWithoutPendingFails(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	f := c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: 42, TS: ts(5), WriteKeys: []string{"x"}})
	resp, err := wire.DecodeFreezeBatchResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.WriteAcks) != 1 || resp.WriteAcks[0].Status == wire.StatusOK {
		t.Fatalf("freeze without a pending write must fail per key: %+v", resp)
	}
}

// TestServerBatchOfOneMatchesSingleKey checks the degenerate batch: a
// batch of size one behaves exactly like the legacy single-key message.
func TestServerBatchOfOneMatchesSingleKey(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))

	f := c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn: 1, DecisionSrv: "srv",
		Items: []wire.WriteLockItem{{Key: "x", Set: set, Value: []byte("v1")}},
	})
	bresp, err := wire.DecodeWriteLockBatchResp(f.Body())
	if err != nil || bresp.Status != wire.StatusOK || len(bresp.Results) != 1 || !bresp.Results[0].Got.Equal(set) {
		t.Fatalf("%+v %v", bresp, err)
	}

	f = c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: 2, Key: "x", Set: set, Value: []byte("v2")})
	sresp, err := wire.DecodeWriteLockResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if !sresp.Got.IsEmpty() || !sresp.Denied.Equal(set) {
		t.Fatalf("single-key request against batch-held locks: %+v", sresp)
	}
}

// TestSingleKeyWriteIsEpochFenced checks that the single-key write is
// fenced by the epoch its sender stamped it with, exactly like the
// one-item batch it is served as: a head at epoch 3 turns a request
// from epoch 1 away either way, and grants one from epoch 3.
func TestSingleKeyWriteIsEpochFenced(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{Addr: "srv", Network: n, WriteLockTimeout: time.Minute, Repl: &server.ReplConfig{Epoch: 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))

	for i, tc := range []struct {
		epoch uint64
		want  wire.Status
	}{{1, wire.StatusWrongEpoch}, {3, wire.StatusOK}} {
		txn := uint64(2*i + 1)
		f := c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: txn, Epoch: tc.epoch, Key: "single", DecisionSrv: "srv", Set: set, Value: []byte("v")})
		one, err := wire.DecodeWriteLockResp(f.Body())
		if err != nil || one.Status != tc.want || one.Got.Equal(set) != (tc.want == wire.StatusOK) {
			t.Errorf("WriteLockReq at epoch %d: %+v %v, want status %d", tc.epoch, one, err, tc.want)
		}
		f = c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{Txn: txn + 1, Epoch: tc.epoch, DecisionSrv: "srv",
			Items: []wire.WriteLockItem{{Key: "batch", Set: set, Value: []byte("v")}}})
		batch, err := wire.DecodeWriteLockBatchResp(f.Body())
		if err != nil || batch.Status != tc.want || (len(batch.Results) == 1 && batch.Results[0].Got.Equal(set)) != (tc.want == wire.StatusOK) {
			t.Errorf("one-item WriteLockBatchReq at epoch %d: %+v %v, want status %d", tc.epoch, batch, err, tc.want)
		}
	}
}

// TestServerReadLockBatch drives the batched read handler directly: one
// frame fetches several keys, each with its own version/value/interval
// sub-result, fresh keys come back as ⊥ at timestamp zero, and one
// blocked key fails its sub-result without poisoning the others.
func TestServerReadLockBatch(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	// Seed: txn 1 commits a and b at 5 via the batched write path.
	set := timestamp.NewSet(timestamp.Span(ts(1), ts(10)))
	c.call(wire.TWriteLockBatchReq, wire.WriteLockBatchReq{
		Txn: 1, DecisionSrv: "srv",
		Items: []wire.WriteLockItem{
			{Key: "a", Set: set, Value: []byte("va")},
			{Key: "b", Set: set, Value: []byte("vb")},
		},
	})
	c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: 1, TS: ts(5), WriteKeys: []string{"a", "b"}})
	c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 1, Keys: []string{"a", "b"}})

	f := c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{
		Txn: 9, Upper: ts(100), Keys: []string{"a", "fresh", "b"},
	})
	var resp wire.ReadLockBatchResp
	err := resp.DecodeInto(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 3 {
		t.Fatalf("%+v %v", resp, err)
	}
	for i, want := range []struct {
		ts    timestamp.Timestamp
		value string
	}{{ts(5), "va"}, {timestamp.Zero, ""}, {ts(5), "vb"}} {
		r := resp.Results[i]
		if r.Status != wire.StatusOK || r.VersionTS != want.ts || string(r.Value) != want.value {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	if resp.Results[1].Value != nil {
		t.Fatalf("fresh key must read ⊥ (nil), got %v", resp.Results[1].Value)
	}

	// Txn 2 holds an unfrozen write lock on "hot": a waiting batch
	// containing it times out on that key only; the other key settles.
	c.call(wire.TWriteLockReq, wire.WriteLockReq{
		Txn: 2, Key: "hot", DecisionSrv: "srv", Set: set, Value: []byte("wip"),
	})
	f = c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{
		Txn: 9, Upper: ts(8), Wait: true, Keys: []string{"hot", "a"},
	})
	err = resp.DecodeInto(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 2 {
		t.Fatalf("%+v %v", resp, err)
	}
	if resp.Results[0].Status == wire.StatusOK {
		t.Fatalf("read under an unfrozen write lock must not settle: %+v", resp.Results[0])
	}
	if resp.Results[1].Status != wire.StatusOK || string(resp.Results[1].Value) != "va" {
		t.Fatalf("healthy key poisoned by blocked sibling: %+v", resp.Results[1])
	}
}
