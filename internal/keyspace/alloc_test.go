package keyspace

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// TestVersionArenaAllocs gates what a committed version costs its key:
// a node carved from the stripe's arena, 128 to an allocation, and
// nothing once purges hand nodes back. A dropped node is zeroed on the
// free list, so it keeps no value alive.
func TestVersionArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	val := []byte("8 bytes.")

	t.Run("fresh keys", func(t *testing.T) {
		const keys, ceiling = 10_000, 64 // installs per allocation, at least
		s := New(lock.NewWaitGraph(), nil)
		ks := make([]*Key, keys)
		for i := range ks {
			ks[i] = s.Key(fmt.Sprintf("key-%05d", i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range ks {
			if err := k.Locks.Install(ts(1), val); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		if allocs*ceiling > keys {
			t.Errorf("%d installs into fresh keys: %d allocations, ceiling one per %d installs", keys, allocs, ceiling)
		} else {
			t.Logf("%d installs into fresh keys: %d allocations (ceiling one per %d installs)", keys, allocs, ceiling)
		}
	})

	t.Run("install purge install", func(t *testing.T) {
		k := New(lock.NewWaitGraph(), nil).Key("warm")
		next := int64(1)
		cycle := func() {
			if err := k.Locks.Install(ts(next), val); err != nil {
				t.Fatal(err)
			}
			k.Locks.Trim(ts(next))
			if err := k.Locks.Install(ts(next+1), val); err != nil {
				t.Fatal(err)
			}
			next += 2
		}
		cycle()
		cycle()
		// Counted over many cycles, not averaged per run: a chunk of 128
		// nodes carved every 64 cycles would round to 0 per run.
		const cycles = 1000
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range cycles {
			cycle()
		}
		runtime.ReadMemStats(&after)
		if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
			t.Errorf("%d cycles of install → Trim → install on a warmed key: %d allocations, want 0", cycles, allocs)
		} else {
			t.Logf("%d cycles of install → Trim → install on a warmed key: 0 allocations", cycles)
		}
		if n := k.Locks.Stats().Versions; n != 3 {
			t.Fatalf("Count = %d after the cycles, want 3", n)
		}
	})

	t.Run("dropped node holds no value", func(t *testing.T) {
		k := New(lock.NewWaitGraph(), nil).Key("k")
		collected := make(chan struct{})
		installCollectable(t, k, ts(1), collected)
		for _, p := range []int64{2, 3} {
			if err := k.Locks.Install(ts(p), val); err != nil {
				t.Fatal(err)
			}
		}
		if removed, _ := k.Locks.Trim(ts(3)); removed != 2 {
			t.Fatalf("Trim(3) removed %d versions, want ⊥ and the version at 1", removed)
		}
		for deadline := time.Now().Add(5 * time.Second); ; {
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(10 * time.Millisecond):
				if time.Now().Before(deadline) {
					continue
				}
				t.Fatal("the purged version's value is still reachable: a node on the free list keeps it")
			}
			break
		}
		// The key, and with it the arena and its free list, is live
		// until here.
		if vs := k.Locks.VersionSnapshot(); len(vs) != 2 || vs[1].TS != ts(3) {
			t.Fatalf("versions %+v after the purge, want those at 2 and 3", vs)
		}
	})
}

// installCollectable installs at t a value of its own, which signals
// collected once the collector frees it.
func installCollectable(t *testing.T, k *Key, at timestamp.Timestamp, collected chan struct{}) {
	t.Helper()
	v := make([]byte, 64)
	runtime.SetFinalizer(&v[0], func(*byte) { close(collected) })
	if err := k.Locks.Install(at, v); err != nil {
		t.Fatal(err)
	}
}
