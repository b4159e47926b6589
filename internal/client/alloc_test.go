package client_test

import (
	"context"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// Allocation ceilings of the point transaction, process-wide (the
// servers run in this process, so their share counts): measured 10 per
// transaction and 0 per single-key Read — 18 when this gate was first
// set; 102 and 4 before the servers decoded keys as views into per-connection
// scratch and replied by pointer; 315 and 26 with a map-based footprint,
// an always-spawning fan-out and spawn-by-type server dispatch. The
// transaction's ceiling is the measurement plus two for runtime noise
// (a GC emptying the frame pool, map growth in the lock tables), not for
// new per-operation allocations: one of those on a six-read transaction
// costs six and trips the gate. A Read allocates nothing, and the
// average over 200 runs absorbs a refilled pool, so its ceiling is the
// measurement. What the transaction puts on the wire is pinned beside
// this gate, in TestCommitTailFrames.
//
// The same ceilings hold on clock.Virtual, where every modelled frame
// delivery is a timeline event: measured 10 and 0 there too, 68 and 6
// while a sleep allocated its wake channel, a closure and a timer
// entry.
const (
	pointTxnAllocCeiling = 12
	readAllocCeiling     = 0
)

// TestPointTxnAllocBudget gates the allocation cost of the benchmark's
// tcp-point transaction (MVTIL-early, six single-key reads, two writes,
// commit) over three Mem servers, and of a single-key Read on its own —
// which must cost no fan-out goroutine, join or waiter. The servers are
// zero-latency on the wall clock, and on clock.Virtual they have
// vt-point's latency model, timers and timestamp source.
func TestPointTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Run("wall", func(t *testing.T) {
		n := transport.NewMem(transport.LatencyModel{})
		addrs := startServers(t, n, 3)
		checkPointTxnAllocs(t, client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly})
	})
	t.Run("virtual", func(t *testing.T) {
		v := clock.NewVirtual()
		v.Register() // this goroutine is the timeline's root actor
		t.Cleanup(v.Unregister)
		n := transport.NewMemSeededTimers(transport.LatencyModel{Base: 100 * time.Microsecond, Jitter: 50 * time.Microsecond}, 1, v)
		addrs := startServersOn(t, n, 3, v)
		// As on vt-point, the detector's timer-driven polls are off: TIL
		// lock requests never park.
		checkPointTxnAllocs(t, client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly,
			Clock: clock.TimersSource{T: v}, Timers: v, DeadlockPoll: -1})
	})
}

func checkPointTxnAllocs(t *testing.T, cfg client.Config) {
	cl, err := client.New(cfg)
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
