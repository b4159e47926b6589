package client_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// TestTxnSizeClass pins the one allocation a transaction costs at Begin,
// on either backend, to its size class. It is a core.Txn and nothing
// else: the coordinator's backend is one value per Client, and what it
// keeps of a transaction rides the Txn's pooled scratch, as does the
// transaction's footprint. The runtime rounds the Txn up to the next
// size class, 96 bytes, and every byte up to the class is free. One byte
// past it costs the whole step to the next class, 112: +16 bytes per
// transaction with no new allocation to show for it. (The 8-byte malloc
// header counts against the class only above 512 bytes; the 760-byte
// Txn that held eight footprint entries inline paid it, in the
// 768-byte class.) Whatever would cross the class — the footprint
// itself, first of all — belongs in the pooled scratch (core.Scratch).
func TestTxnSizeClass(t *testing.T) {
	const txnClass = 96
	if n := unsafe.Sizeof(core.Txn{}); n > txnClass {
		t.Errorf("core.Txn is %d bytes, over its %d-byte size class", n, txnClass)
	} else {
		t.Logf("core.Txn: %d bytes (class %d)", n, txnClass)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}

	// Nothing listens at s0: Begin sends nothing, and a client none of
	// whose requests waits runs nothing of its own.
	cl, err := client.New(client.Config{ID: 1, Servers: []string{"s0"}, Network: transport.NewMem(transport.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	begin := func() {
		if _, err := cl.Begin(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, begin); avg != 1 {
		t.Errorf("Client.Begin: %v allocations, want exactly 1 (the core.Txn)", avg)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		begin()
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > txnClass {
		t.Errorf("Client.Begin: %d bytes, over the %d-byte class of the core.Txn", n, txnClass)
	} else {
		t.Logf("Client.Begin: %d bytes (class %d)", n, txnClass)
	}
}
