package client_test

import (
	"context"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// TestRecycledTxnStateStartsBlank: the coordinator keeps what it knows of
// a transaction — pinned routes, grants, the decision server — in the
// transaction's pooled scratch, so the next transaction finds the last
// one's there and must start it over. A writer on servers 0 and 1
// commits, or in the second case aborts after its write locks went out,
// and hands its scratch on to a read-only transaction on server 2. That
// one sends no decide and no write-lock batch, and nothing at all to the
// writer's servers. A later writer, whose first write is on server 2,
// takes its decision server from that write, not from the earlier
// writer's.
func TestRecycledTxnStateStartsBlank(t *testing.T) {
	for _, tc := range []struct {
		outcome string
		mode    client.Mode
	}{
		{"committed", client.ModeTILEarly},
		// A pessimistic writer write-locks at Write, so its abort has a
		// decision server and a server to release.
		{"aborted", client.ModePessimistic},
	} {
		t.Run(tc.outcome, func(t *testing.T) { recycledTxnStateStartsBlank(t, tc.outcome, tc.mode) })
	}
}

func recycledTxnStateStartsBlank(t *testing.T, outcome string, mode client.Mode) {
	const servers = 3
	n := newCountingNetwork(transport.NewMem(transport.LatencyModel{}))
	addrs := startServers(t, n, servers)
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()

	// begin starts a transaction and takes its scratch at once, on the
	// goroutine and P the last transaction handed its scratch back on.
	begin := func() (*core.Txn, *core.Scratch) {
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		txn := tx.(*core.Txn)
		return txn, txn.Scratch()
	}
	handedOn := func(who string, got, want *core.Scratch) {
		switch {
		case got == want:
		case raceEnabled:
			t.Logf("%s runs on scratch %p, not %p: the pool drops entries under the race detector", who, got, want)
		default:
			t.Fatalf("%s runs on scratch %p, not the %p handed back before it: nothing was recycled", who, got, want)
		}
	}
	decides := func() (d [servers]int64) {
		for i, addr := range addrs {
			d[i] = n.sentOf(addr, wire.TDecideReq)
		}
		return d
	}

	w, wScratch := begin()
	for _, k := range []string{keysOn("w", 0, servers, 1)[0], keysOn("w", 1, servers, 1)[0]} {
		if err := w.Write(ctx, k, []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if outcome == "committed" {
		if err := w.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	} else if err := w.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	// The reader's footprint is as long as the writer's: positions the
	// writer's state still describes are the reader's keys.
	r, rScratch := begin()
	handedOn("the reader", rScratch, wScratch)
	base := settled(t, n, cl, addrs)
	before := n.snapshot()
	for _, k := range keysOn("r", 2, servers, 2) {
		if _, err := r.Read(ctx, k); err != nil {
			t.Errorf("read %q: %v", k, err)
		}
	}
	if err := r.Commit(ctx); err != nil {
		t.Errorf("read-only commit: %v", err)
	}
	w2, w2Scratch := begin()
	handedOn("the second writer", w2Scratch, rScratch)
	settled(t, n, cl, addrs)
	d, after := n.since(base), n.snapshot()
	if d.byType[wire.TDecideReq] != 0 || d.byType[wire.TWriteLockBatchReq] != 0 {
		t.Errorf("after the %s writer, a read-only transaction sent %d decides and %d write-lock batches, want none",
			outcome, d.byType[wire.TDecideReq], d.byType[wire.TWriteLockBatchReq])
	}
	for _, addr := range addrs[:2] {
		if got := after[addr] - before[addr]; got != 1 {
			t.Errorf("after the %s writer, server %s got %d frames from a reader of server %s only, want 1 (the barrier's call)", outcome, addr, got, addrs[2])
		}
	}

	was := decides()
	for _, k := range []string{keysOn("x", 2, servers, 1)[0], keysOn("x", 0, servers, 1)[0]} {
		if err := w2.Write(ctx, k, []byte("w2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	settled(t, n, cl, addrs)
	if now := decides(); now[0]-was[0] != 0 || now[1]-was[1] != 0 || now[2]-was[2] != 1 {
		t.Errorf("the second writer's decides per server went from %v to %v, want one to server %s, its first write's", was, now, addrs[2])
	}
}
