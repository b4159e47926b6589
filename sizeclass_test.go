package mvtl_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	mvtl "github.com/lpd-epfl/mvtl"
)

// TestStoreBeginSizeClass pins a Store transaction to one allocation of
// the engine's own transaction, 48 bytes, as client's TestTxnSizeClass
// does for the coordinator: the mvtl.Txn is the core.Txn held by value
// and nothing else — its read-only mark is the core.Txn's — so wrapping
// it costs neither a second allocation nor a larger class, and its
// footprint lives in the engine's pooled scratch.
func TestStoreBeginSizeClass(t *testing.T) {
	const txnClass = 48
	if n := unsafe.Sizeof(mvtl.Txn{}); n != txnClass {
		t.Errorf("mvtl.Txn is %d bytes, want %d", n, txnClass)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}

	store := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	begin := func() {
		if _, err := store.Begin(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, begin); avg != 1 {
		t.Errorf("Store.Begin: %v allocations, want exactly 1 (the mvtl.Txn)", avg)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		begin()
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > txnClass {
		t.Errorf("Store.Begin: %d bytes, over the %d bytes of the mvtl.Txn", n, txnClass)
	}
}
