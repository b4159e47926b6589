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
// keeps of a transaction rides the Txn's pooled scratch. The runtime
// rounds the Txn up to the next size class, 768 bytes, and every byte up
// to the class is free. One byte past it costs the whole step to the
// next class, 896: +128 bytes per transaction with no new allocation to
// show for it — a 768-byte core.Txn took that class and cost local-hot
// 13 % of its bytes per commit. An object over 512 bytes that holds
// pointers carries an 8-byte malloc header, which counts against the
// class. Whatever would cross the class belongs in the pooled scratch
// (core.Scratch) instead.
func TestTxnSizeClass(t *testing.T) {
	const txnClass, header = 768, 8
	if n := unsafe.Sizeof(core.Txn{}) + header; n > txnClass {
		t.Errorf("core.Txn is %d bytes with its header, over its %d-byte size class", n, txnClass)
	} else {
		t.Logf("core.Txn: %d bytes with its header (class %d)", n, txnClass)
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
