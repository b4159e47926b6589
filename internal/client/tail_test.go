package client_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// tally is a point-in-time reading of a countingNetwork's totals.
type tally struct {
	c2s, casts, s2c int64
	byType          [256]int64
}

// since returns what was exchanged after base was read; the zero base
// reads the totals.
func (n *countingNetwork) since(base tally) tally {
	d := tally{c2s: n.c2s.Load() - base.c2s, casts: n.casts.Load() - base.casts, s2c: n.s2c.Load() - base.s2c}
	for t := range d.byType {
		d.byType[t] = n.byType[t].Load() - base.byType[t]
	}
	return d
}

// keysOn returns count distinct keys, tagged, that partition onto server
// part of servers.
func keysOn(tag string, part, servers, count int) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		if k := fmt.Sprintf("%s-%d", tag, i); strhash.Partition(k, servers) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// settled waits until every server has served what cl sent it so far —
// a call to each, behind the casts on the one connection cl has to it —
// and returns the totals past that barrier: a reply to a cast, if any
// server sent one, has been counted.
func settled(t *testing.T, n *countingNetwork, cl *client.Client, addrs []string) tally {
	t.Helper()
	for _, addr := range addrs {
		if _, err := cl.ServerStats(context.Background(), addr); err != nil {
			t.Fatal(err)
		}
	}
	return n.since(tally{})
}

// TestCommitTailFrames pins the shape of a commit's tail under a
// garbage-collecting policy: the benchmark's point transaction — six
// reads and two writes spread over three servers — makes nine calls (its
// operations and the decide, which carries the decision server's share
// of the tail), casts one committed release to each other server, and
// receives exactly one frame per call: nothing answers a cast, and no
// freeze batch is sent at all. A read-only transaction decides locally
// and receives exactly its reads.
func TestCommitTailFrames(t *testing.T) {
	const servers = 3
	n := newCountingNetwork(transport.NewMem(transport.LatencyModel{}))
	addrs := startServers(t, n, servers)
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()

	var reads, writes []string
	for p := 0; p < servers; p++ {
		reads = append(reads, keysOn("r", p, servers, 2)...)
	}
	writes = append(keysOn("w", 0, servers, 1), keysOn("w", 1, servers, 1)...)
	run := func(writes []string) tally {
		t.Helper()
		base := settled(t, n, cl, addrs)
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range reads {
			if _, err := tx.Read(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range writes {
			if err := tx.Write(ctx, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		// Behind a second barrier a late answer to a cast would show;
		// the barrier's own calls and replies are not the transaction's.
		settled(t, n, cl, addrs)
		d := n.since(base)
		d.c2s, d.s2c = d.c2s-servers, d.s2c-servers
		return d
	}

	d := run(writes)
	if calls := d.c2s - d.casts; calls != 9 || d.casts > 2 {
		t.Errorf("point transaction: %d calls and %d casts, want 9 calls (6 reads, 2 writes, 1 decide) and at most 2 casts", calls, d.casts)
	}
	if d.s2c != d.c2s-d.casts {
		t.Errorf("point transaction: received %d frames for %d calls: a cast was answered", d.s2c, d.c2s-d.casts)
	}
	if d.byType[wire.TFreezeBatchReq] != 0 || d.byType[wire.TReleaseBatchReq] != d.casts || d.byType[wire.TDecideReq] != 1 {
		t.Errorf("point transaction: %d freeze batches, %d release batches, %d decides; want none, one per cast (%d), one",
			d.byType[wire.TFreezeBatchReq], d.byType[wire.TReleaseBatchReq], d.byType[wire.TDecideReq], d.casts)
	}

	d = run(nil)
	if d.s2c != int64(len(reads)) || d.c2s-d.casts != int64(len(reads)) {
		t.Errorf("read-only transaction: %d calls, %d frames received, want %d of each (its reads)", d.c2s-d.casts, d.s2c, len(reads))
	}
	if d.casts != servers || d.byType[wire.TReleaseBatchReq] != servers || d.byType[wire.TDecideReq] != 0 {
		t.Errorf("read-only transaction: %d casts, %d of them release batches, %d decides; want one release per server and no decide",
			d.casts, d.byType[wire.TReleaseBatchReq], d.byType[wire.TDecideReq])
	}

	// What the single frames did: the writes are readable, and nothing
	// of either transaction is left locked or pending on any server.
	check, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range writes {
		if v, err := check.Read(ctx, k); err != nil || string(v) != "v" {
			t.Fatalf("read back %q = %q, %v", k, v, err)
		}
	}
	if err := check.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	settled(t, n, cl, addrs)
	for _, addr := range addrs {
		st, err := cl.ServerStats(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		if st.LiveTxns != 0 || st.LockEntries != st.FrozenLocks {
			t.Errorf("server %s: %d live transactions, %d lock entries of which %d frozen; want none live and none unfrozen", addr, st.LiveTxns, st.LockEntries, st.FrozenLocks)
		}
	}
}

// TestAbortProposalIsCast: a coordinator whose operation failed owes
// nobody a wait — its abort proposal (carrying the decision server's
// release) and the other servers' releases are casts, so after the
// failed operation's own round trip it parks on nothing, and may retry
// at once. The proposal still arrives: the commitment object ends
// decided-abort, and the keys are free for the next writer.
func TestAbortProposalIsCast(t *testing.T) {
	const servers = 2
	n := newCountingNetwork(transport.NewMem(transport.LatencyModel{}))
	addrs := startServers(t, n, servers)
	ticks := new(clock.Manual)
	ticks.Set(1_000_000)
	newClient := func(id int32, delta int64) *client.Client {
		cl, err := client.New(client.Config{ID: id, Servers: addrs, Network: n, Mode: client.ModeTILEarly, Clock: ticks, Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		return cl
	}
	// The blocker's interval covers the victim's, so the victim's write
	// to the contested key is denied whole and aborts it.
	blocker, victim := newClient(1, 100_000), newClient(2, 1_000)
	ctx := context.Background()
	contested := keysOn("x", 1, servers, 1)[0]
	k0, k1 := keysOn("k", 0, servers, 1)[0], keysOn("k", 1, servers, 1)[0]

	hold, err := blocker.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := hold.Write(ctx, contested, []byte("held")); err != nil {
		t.Fatal(err)
	}

	tx, err := victim.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{k0, k1} {
		if err := tx.Write(ctx, k, []byte("never")); err != nil {
			t.Fatal(err)
		}
	}
	base := settled(t, n, victim, addrs)
	if err := tx.Write(ctx, contested, []byte("never")); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("write under the blocker's locks: %v, want an abort", err)
	}
	d := n.since(base)
	if calls := d.c2s - d.casts; calls != 1 || d.s2c != 1 {
		t.Errorf("the aborting write and its cleanup: %d calls, %d frames received; want the write's one round trip and nothing parked on after it", calls, d.s2c)
	}
	if d.casts != servers || d.byType[wire.TDecideReq] != 1 || d.byType[wire.TReleaseBatchReq] != servers-1 {
		t.Errorf("cleanup: %d casts (%d decides, %d release batches), want the proposal to the decision server and a release to the other",
			d.casts, d.byType[wire.TDecideReq], d.byType[wire.TReleaseBatchReq])
	}

	// Behind the barrier the proposal has been served. A commit proposal
	// for the same transaction now loses to it.
	settled(t, n, victim, addrs)
	probe := rpc.NewClient(n, addrs[0], 1) // k0's server: the first one written to
	defer func() { _ = probe.Close() }()
	id := tx.(*core.Txn).ID()
	f, err := probe.Call(ctx, id, wire.TDecideReq, wire.DecideReq{Txn: id, Proposal: wire.DecideCommit, TS: timestamp.New(1_000_500, 2)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeDecideResp(f.Body())
	f.Release()
	if err != nil || resp.Status != wire.StatusOK || resp.Kind != wire.DecideAbort {
		t.Fatalf("commitment object after the abort cast: %+v, %v; want decided abort", resp, err)
	}

	if err := hold.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	settled(t, n, blocker, addrs) // its release is a cast on another connection
	next, err := victim.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{k0, k1, contested} {
		if err := next.Write(ctx, k, []byte("next")); err != nil {
			t.Fatalf("write %q after the aborts: %v", k, err)
		}
	}
	if err := next.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
