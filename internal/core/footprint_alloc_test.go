package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	mvtl "github.com/lpd-epfl/mvtl"
)

// spilledTxnClass is the size class of an mvtl.Txn, which is its
// core.Txn held by value: the one allocation a transaction may make
// however many keys it touches.
const spilledTxnClass = 48

// TestSpilledFootprintAllocs gates a footprint larger than any fixed
// inline buffer: a read-only Store transaction over sixteen preloaded
// keys (Begin, sixteen Gets, Commit) allocates its mvtl.Txn and nothing
// else. Its footprint lives in the engine's pooled scratch, grown once
// per pool entry, not with each transaction: 2 allocations and 2048
// bytes while the Txn held eight entries inline and spilled the rest to
// the heap.
func TestSpilledFootprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const nkeys = 16
	store := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	if err := store.Update(ctx, func(tx *mvtl.Txn) error {
		for _, k := range keys {
			if err := tx.Set(ctx, k, []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	txn := func() {
		tx, err := store.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, err := tx.Get(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A sync.Pool keeps its entries per P, and a goroutine that moves to
	// a P holding none takes a fresh scratch there: a warm-up per P, not a
	// cost per transaction. Warm-up and both counts run on one P, as
	// testing.AllocsPerRun's count does anyway.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 100 { // warm-up: the pooled scratch grows to sixteen keys
		txn()
	}
	if avg := testing.AllocsPerRun(100, txn); avg != 1 {
		t.Errorf("%d-key read-only transaction: %v allocations, want exactly 1 (the mvtl.Txn)", nkeys, avg)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		txn()
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > spilledTxnClass {
		t.Errorf("%d-key read-only transaction: %d bytes, over the %d-byte class of the mvtl.Txn", nkeys, n, spilledTxnClass)
	} else {
		t.Logf("%d-key read-only transaction: %d bytes (class %d)", nkeys, n, spilledTxnClass)
	}
}
