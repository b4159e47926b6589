package mvtl_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	mvtl "github.com/lpd-epfl/mvtl"
)

// TestStoreBeginSizeClass pins a Store transaction to one allocation in
// the size class of the engine's own transaction, as client's
// TestTxnSizeClass does for the coordinator: the mvtl.Txn holds the
// engine's transaction by value, so wrapping it costs neither a second
// allocation nor a larger class, and its footprint lives in the engine's
// pooled scratch. The 8-byte malloc header counts against the class only
// above 512 bytes.
func TestStoreBeginSizeClass(t *testing.T) {
	const txnClass = 96
	if n := unsafe.Sizeof(mvtl.Txn{}); n > txnClass {
		t.Errorf("mvtl.Txn is %d bytes, over its %d-byte size class", n, txnClass)
	} else {
		t.Logf("mvtl.Txn: %d bytes (class %d)", n, txnClass)
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
		t.Errorf("Store.Begin: %d bytes, over the %d-byte class of the mvtl.Txn", n, txnClass)
	} else {
		t.Logf("Store.Begin: %d bytes (class %d)", n, txnClass)
	}
}
