package client_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// Allocation ceilings of the point transaction, process-wide (the
// servers run in this process, so their share counts): measured 3 per
// transaction over present 8-byte values and 0 per single-key Read —
// the Txn, and what the transaction leaves on the servers: two pending
// values, whose versions take nodes that their stripes' arenas carve
// 128 at a time. It was 6 while the decision server allocated a
// commitment object per writing transaction where it now keeps a
// decision in a map, and 14 over present values (8 over ⊥, whose copy was free) while each value read
// was cloned out of its response frame and each server allocated a
// record per writing transaction. Over ⊥ it was 10 while the
// coordinator allocated its per-transaction state beside the Txn
// instead of taking it from the pooled scratch, 18 when this gate was
// first set; 102 and 4 before the servers decoded keys as views into
// per-connection scratch and replied by pointer; 315 and 26 with a
// map-based footprint, an always-spawning fan-out and spawn-by-type
// server dispatch. The transaction's ceiling is the measurement plus
// one for runtime noise (a GC emptying the frame pool, map growth in
// the lock tables, a stripe's arena carving a chunk of nodes), not
// for new per-operation allocations: one of those on a six-read
// transaction costs six and trips the gate. A Read allocates nothing,
// and the average over 200 runs absorbs a refilled pool or a grown
// region of read values, so its ceiling is the measurement. What the
// transaction puts on the wire is pinned beside this gate, in
// TestCommitTailFrames.
//
// The same ceilings hold on clock.Virtual, where every modelled frame
// delivery is a timeline event: measured 3 and 0 there too, 68 and 6
// over ⊥ while a sleep allocated its wake channel, a closure and a
// timer entry.
const (
	pointTxnAllocCeiling = 4
	readAllocCeiling     = 0
)

// TestPointTxnAllocBudget gates the allocation cost of the benchmark's
// tcp-point transaction (MVTIL-early over keys preloaded with 8-byte
// values, six single-key reads, two writes, commit) over three Mem
// servers, and of a single-key Read on its own, of ⊥ and of a present
// value, and the read step over two keys on two servers — which must
// cost no fan-out goroutine, join or waiter. The servers are
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
		checkPointTxnAllocs(t, client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly,
			Clock: clock.TimersSource{T: v}, Timers: v})
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

	// The preload, as tcp-point's: every key gets an 8-byte value, so the
	// measured reads copy values, not ⊥, and connections, waiter slots,
	// frame pool and every key's server-side state exist before counting.
	// The measured transactions stay within one pass over the table, so
	// each finds its keys as tcp-point's mostly do: holding the preload's
	// version and frozen write lock only.
	preload(t, ctx, cl, keys, val)
	i := 0
	txn := func() {
		if err := pointTxn(ctx, cl, keys, i, val); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if avg := testing.AllocsPerRun(200, txn); avg > pointTxnAllocCeiling {
		t.Errorf("point transaction: %v allocs, ceiling %d", avg, pointTxnAllocCeiling)
	} else {
		t.Logf("point transaction: %v allocs (ceiling %d)", avg, pointTxnAllocCeiling)
	}

	// Re-reading a key inside one transaction repeats the whole read
	// path — stage, one-server fan-out, server read-lock, fold — without
	// growing the footprint, so the count is the path's own: over a
	// present value, whose copy is lent from the coordinator's region of
	// read values, and over a key outside the table, ⊥.
	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, key string }{{"a present value", keys[0]}, {"⊥", "absent"}} {
		read := func() {
			if _, err := tx.Read(ctx, c.key); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if avg := testing.AllocsPerRun(200, read); avg > readAllocCeiling {
			t.Errorf("single-key Read of %s: %v allocs, ceiling %d (a fan-out goroutine alone costs more)", c.what, avg, readAllocCeiling)
		} else {
			t.Logf("single-key Read of %s: %v allocs (ceiling %d)", c.what, avg, readAllocCeiling)
		}
	}

	// The same read step over a batch of two present values on two
	// servers: one fan-out that sends both requests and then waits for
	// each reply on the calling goroutine, so it too costs no goroutine,
	// join or closure. They are keys[0] and other, footprint positions 0
	// and 2.
	other := keys[1]
	for _, k := range keys[1:6] {
		if strhash.Partition(k, len(cfg.Servers)) != strhash.Partition(keys[0], len(cfg.Servers)) {
			other = k
			break
		}
	}
	if _, err := tx.Read(ctx, other); err != nil {
		t.Fatal(err)
	}
	engineTxn := tx.(*core.Txn)
	fanOut := func() {
		if _, err := engineTxn.ReadLocks(ctx, engineTxn.Batch(0, 2), timestamp.Infinity, false); err != nil {
			t.Fatal(err)
		}
	}
	fanOut()
	if avg := testing.AllocsPerRun(200, fanOut); avg > readAllocCeiling {
		t.Errorf("two-server read fan-out: %v allocs, ceiling %d", avg, readAllocCeiling)
	} else {
		t.Logf("two-server read fan-out: %v allocs (ceiling %d)", avg, readAllocCeiling)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// batchTxnAllocCeiling is the allocation ceiling of tcp-batch's
// transaction in miniature, process-wide: the measurement plus one for
// runtime noise. Measured 3, as the point transaction: the Txn, and what
// the transaction leaves on the servers, two pending values whose
// versions take arena nodes. The sixteen-key footprint and GetMulti's
// result map live in the pooled scratch, and the fourteen values read
// are lent from the coordinator's region of read values, which the next
// transaction reuses. It was 10 while
// GetMulti built a new map per call and a new 32 KiB chunk of read
// values, never rewound, refilled the region every couple of
// transactions, 11 while the Txn held eight footprint entries inline
// and sixteen keys spilled them, 27 while each value read was cloned on
// its own and each server allocated a record per writing transaction,
// 32 while the coordinator's per-transaction state was allocated with
// each transaction and spilled past its inline buffers.
const batchTxnAllocCeiling = 4

// TestBatchTxnAllocBudget gates the allocation cost of the benchmark's
// tcp-batch transaction in miniature (MVTIL-early over three zero-latency
// Mem servers): sixteen keys with 1 KiB values, the leading fourteen read
// as one GetMulti, then two writes and commit. The engine's footprint,
// GetMulti's map and the coordinator's per-transaction state — routes,
// grants, staged names, read results, freeze ranges, write-lock items,
// the region of read values — are what the pooled scratch saves it from
// growing anew.
func TestBatchTxnAllocBudget(t *testing.T) {
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
	keys := make([]string, 2048)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	val := make([]byte, 1024)

	// The preload, as tcp-batch's: every key gets a 1 KiB value, and
	// connections, waiter slots, frame pool and every key's server-side
	// state exist before counting. The measured transactions then read
	// values, not ⊥, and stay within one pass over the table.
	preload(t, ctx, cl, keys, val)
	i := 0
	txn := func() {
		if err := batchTxn(ctx, cl, keys, i, val); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if avg := testing.AllocsPerRun(100, txn); avg > batchTxnAllocCeiling {
		t.Errorf("batch transaction: %v allocs, ceiling %d", avg, batchTxnAllocCeiling)
	} else {
		t.Logf("batch transaction: %v allocs (ceiling %d)", avg, batchTxnAllocCeiling)
	}
}

// preload writes val to every key, sixteen keys per transaction; len(keys)
// is a multiple of sixteen.
func preload(t *testing.T, ctx context.Context, cl *client.Client, keys []string, val []byte) {
	t.Helper()
	for lo := 0; lo < len(keys); lo += 16 {
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[lo : lo+16] {
			if err := tx.Write(ctx, k, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// batchTxn runs one transaction of the tcp-batch shape over the sixteen
// consecutive keys of the table starting at 16*i: the leading fourteen
// read as one GetMulti, then two writes of val, commit.
func batchTxn(ctx context.Context, cl *client.Client, keys []string, i int, val []byte) error {
	tx, err := cl.Begin(ctx)
	if err != nil {
		return err
	}
	ks := keys[(16*i)%len(keys):][:16]
	if _, err := kv.GetMulti(ctx, tx, ks[:14]); err != nil {
		return err
	}
	for _, k := range ks[14:] {
		if err := tx.Write(ctx, k, val); err != nil {
			return err
		}
	}
	return tx.Commit(ctx)
}
