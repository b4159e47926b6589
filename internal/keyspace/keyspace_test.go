package keyspace

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

func ts(n int64) timestamp.Timestamp { return timestamp.New(n, 0) }

// TestKeyOutlivesBorrowedName looks a key up through a view of a buffer
// and then recycles the buffer: the key must stay findable under its
// name, and everything that reports the name must still spell it.
func TestKeyOutlivesBorrowedName(t *testing.T) {
	const name = "the-key-that-must-survive"
	s := New(lock.NewWaitGraph(), nil)
	buf := []byte(name)
	k := s.Key(unsafe.String(&buf[0], len(buf)))
	for i := range buf {
		buf[i] = 'x'
	}
	if again := s.Key(name); again != k {
		t.Fatalf("a fresh %q finds %p, the borrowed view created %p", name, again, k)
	}
	if k.Name != name {
		t.Fatalf("Name = %q after the buffer was overwritten, want %q", k.Name, name)
	}
	if names := s.Names(); !slices.Equal(names, []string{name}) {
		t.Fatalf("Names() = %q, want only %q", names, name)
	}
}

// TestReadStepExits drives the read step (lock.Table.Read) through each
// of its exits, as owner 1 reading up to ts(10) and picking below it —
// or below a lower bound, as MVTL-Pref picks below its preferential
// timestamp.
func TestReadStepExits(t *testing.T) {
	const reader, writer = lock.Owner(1), lock.Owner(2)
	upper := ts(10)
	first := timestamp.Zero.Next()
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		wait  bool
		pick  timestamp.Timestamp // Zero: upper
		setup func(*testing.T, *Key)
		// The step reads the version at read (Zero for ⊥) and locks got,
		// which is then all the reader holds.
		read timestamp.Timestamp
		got  timestamp.Interval
	}{
		{name: "no conflict", setup: func(*testing.T, *Key) {},
			got: timestamp.Span(first, upper)},
		{name: "frozen write at upper settles", wait: true,
			setup: func(t *testing.T, k *Key) { commit(t, k, writer, upper) },
			got:   timestamp.Span(first, upper.Prev())},
		{name: "no-wait settles for a prefix below a frozen point", pick: ts(5),
			setup: func(t *testing.T, k *Key) { commit(t, k, writer, ts(5)) },
			got:   timestamp.Span(first, ts(5).Prev())},
		{name: "a version below upper is picked",
			setup: func(t *testing.T, k *Key) { commit(t, k, writer, ts(5)) },
			read:  ts(5), got: timestamp.Span(ts(5).Next(), upper)},
		{name: "no-wait takes the prefix below an unfrozen write",
			setup: func(t *testing.T, k *Key) { writeLock(t, k, writer, ts(5)) },
			got:   timestamp.Span(first, ts(5).Prev())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(lock.NewWaitGraph(), nil).Key("k")
			tc.setup(t, k)
			pick := tc.pick
			if pick == timestamp.Zero {
				pick = upper
			}
			v, got, err := k.Locks.Read(ctx, reader, pick, upper, tc.wait)
			if err != nil {
				t.Fatal(err)
			}
			if v.TS != tc.read || !sameInterval(got, tc.got) {
				t.Fatalf("read version %v locking %v, want the version at %v locking %v", v.TS, got, tc.read, tc.got)
			}
			if held, _ := k.Locks.Owned(reader); !held.Equal(timestamp.NewSet(tc.got)) {
				t.Fatalf("the reader holds %v after the step, want %v", held, tc.got)
			}
		})
	}

	// The reader parks on the writer's unfrozen lock at 5, which the
	// writer's commit freezes with its version: the step picks again.
	t.Run("waiting below a frozen point re-picks", func(t *testing.T) {
		g := lock.NewWaitGraph()
		k := New(g, nil).Key("k")
		writeLock(t, k, writer, ts(5))
		type result struct {
			read timestamp.Timestamp
			got  timestamp.Interval
			err  error
		}
		done := make(chan result, 1)
		go func() {
			v, got, err := k.Locks.Read(ctx, reader, upper, upper, true)
			done <- result{v.TS, got, err}
		}()
		for !g.IsWaiting(reader) {
			select {
			case r := <-done:
				t.Fatalf("the read returned version %v locking %v (%v) without waiting", r.read, r.got, r.err)
			default:
				runtime.Gosched()
			}
		}
		if _, err := k.Locks.Commit(writer, ts(5), []byte("new"), timestamp.Zero); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if want := timestamp.Span(ts(5).Next(), upper); r.err != nil || r.read != ts(5) || !sameInterval(r.got, want) {
			t.Fatalf("read version %v locking %v (%v), want the committed version at 5 locking %v", r.read, r.got, r.err, want)
		}
	})

	t.Run("purged", func(t *testing.T) {
		s := New(lock.NewWaitGraph(), nil)
		k := s.Key("k")
		for _, at := range []timestamp.Timestamp{ts(20), ts(30)} {
			if err := k.Locks.Install(at, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if versions, _ := s.PurgeBelow(ts(30)); versions != 1 {
			t.Fatalf("purged %d versions, want the initial one", versions)
		}
		_, _, err := k.Locks.Read(ctx, reader, upper, upper, false)
		if !errors.Is(err, version.ErrPurged) {
			t.Fatalf("read below a purged bound: %v, want version.ErrPurged", err)
		}
		if held, _ := k.Locks.Owned(reader); !held.IsEmpty() {
			t.Fatalf("the failed read left %v locked", held)
		}
	})
}

// sameInterval compares intervals, any two empty ones being the same.
func sameInterval(a, b timestamp.Interval) bool {
	return a == b || (a.IsEmpty() && b.IsEmpty())
}

// TestKeyConcurrentCreate races first lookups of the same names: every
// goroutine must end up with the one Key its name maps to.
func TestKeyConcurrentCreate(t *testing.T) {
	const goroutines, calls, names = 8, 1000, 64
	s := New(lock.NewWaitGraph(), nil)
	var seen [goroutines][names]*Key
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				n := (i + g) % names
				k := s.Key(fmt.Sprintf("key-%d", n))
				if prev := seen[g][n]; prev != nil && prev != k {
					t.Errorf("goroutine %d: key-%d moved from %p to %p", g, n, prev, k)
				}
				seen[g][n] = k
			}
		}()
	}
	wg.Wait()
	for n := 0; n < names; n++ {
		for g := 1; g < goroutines; g++ {
			if seen[g][n] != seen[0][n] {
				t.Fatalf("key-%d: goroutine %d got %p, goroutine 0 got %p", n, g, seen[g][n], seen[0][n])
			}
		}
	}
	if st := s.Stats(); st.Keys != names {
		t.Fatalf("Stats().Keys = %d, want %d", st.Keys, names)
	}
}
