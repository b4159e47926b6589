package client_test

import (
	"context"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// Allocation ceilings of the point transaction, process-wide (the
// servers run in this process, so their share counts): measured 102 per
// transaction and 4 per single-key Read when this gate was set, against
// 315 and 26 with a map-based footprint, an always-spawning fan-out and
// spawn-by-type server dispatch. The headroom is for runtime noise (a
// GC emptying the frame pool, map growth in the lock tables), not for
// new per-operation allocations: one of those on a six-read transaction
// costs six or more and trips the gate.
const (
	pointTxnAllocCeiling = 125
	readAllocCeiling     = 8
)

// TestPointTxnAllocBudget gates the allocation cost of the benchmark's
// tcp-point transaction (MVTIL-early, six single-key reads, two writes,
// commit) over three zero-latency Mem servers, and of a single-key Read
// on its own — which must cost no fan-out goroutine, join or waiter.
func TestPointTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := transport.NewMem(transport.LatencyModel{})
	addrs := startServers(t, n, 3)
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	keys := pointTxnKeys()
	val := []byte("8 bytes.")

	i := 0
	txn := func() {
		if err := pointTxn(ctx, cl, keys, i, val); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// One pass over the key table first: connections, waiter slots, frame
	// pool, and every key's server-side state exist before counting.
	for i < len(keys)/8 {
		txn()
	}
	if avg := testing.AllocsPerRun(200, txn); avg > pointTxnAllocCeiling {
		t.Errorf("point transaction: %v allocs, ceiling %d", avg, pointTxnAllocCeiling)
	} else {
		t.Logf("point transaction: %v allocs (ceiling %d)", avg, pointTxnAllocCeiling)
	}

	// Re-reading a key inside one transaction repeats the whole read
	// path — stage, one-server fan-out, server read-lock, fold — without
	// growing the footprint, so the count is the path's own.
	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := tx.Read(ctx, keys[0]); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if avg := testing.AllocsPerRun(200, read); avg > readAllocCeiling {
		t.Errorf("single-key Read: %v allocs, ceiling %d (a fan-out goroutine alone costs more)", avg, readAllocCeiling)
	} else {
		t.Logf("single-key Read: %v allocs (ceiling %d)", avg, readAllocCeiling)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
