package client_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// txnClass is the size of a core.Txn and the size class of the one
// allocation a transaction costs at Begin. The Txn keeps its id, its
// engine, its outcome and CommitTS, its settings (Priority, the
// read-only mark) and its pooled scratch. Everything else has one home
// elsewhere: the backend is the engine's, one value per store or
// coordinator, and the footprint, the policy's state, the clock override
// and the coordinator's state for the transaction ride the scratch
// (core.Scratch). A byte more costs the step to the next class, 64:
// +16 bytes per transaction with no new allocation to show for it.
const txnClass = 48

// TestTxnSizeClass pins the one allocation a transaction costs at Begin,
// on either backend, to its size class: it is a core.Txn and nothing
// else. (The 8-byte malloc header counts against the class only above
// 512 bytes.)
func TestTxnSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(core.Txn{}); n != txnClass {
		t.Errorf("core.Txn is %d bytes, want %d", n, txnClass)
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
	local := core.New(policy.KindTILEarly.New(clock.NewProcess(clock.System{}, 1), policy.Params{}), core.Options{})
	for _, b := range []struct {
		name string
		db   kv.DB
	}{{"Client.Begin", cl}, {"core.DB.Begin", local.KV()}} {
		ctx := context.Background()
		begin := func() {
			if _, err := b.db.Begin(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(100, begin); avg != 1 {
			t.Errorf("%s: %v allocations, want exactly 1 (the core.Txn)", b.name, avg)
		}
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			begin()
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > txnClass {
			t.Errorf("%s: %d bytes, over the %d bytes of the core.Txn", b.name, n, txnClass)
		}
	}
}
