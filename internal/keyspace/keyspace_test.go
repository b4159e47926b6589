package keyspace

import (
	"context"
	"errors"
	"fmt"
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

// TestReadStepExits drives one pass of the read step through each of its
// exits, as owner 1 reading below ts(10). A frozen point below the bound
// is built by freezing owner 2's write lock where no version is
// installed yet: what a reader sees when it picked its version before a
// committer's Install and scans the locks after its FreezeWriteAt.
func TestReadStepExits(t *testing.T) {
	const reader, writer = lock.Owner(1), lock.Owner(2)
	upper := ts(10)
	first := timestamp.Zero.Next()
	ctx := context.Background()
	writeLock := func(t *testing.T, k *Key, at timestamp.Timestamp, freeze bool) {
		t.Helper()
		res, err := k.Locks.AcquireWrite(ctx, writer, timestamp.NewSet(timestamp.Point(at)), lock.Options{})
		if err != nil || !res.Got.Contains(at) {
			t.Fatalf("write-lock at %v: %+v %v", at, res, err)
		}
		if freeze && !k.Locks.FreezeWriteAt(writer, at) {
			t.Fatalf("freeze at %v failed", at)
		}
	}
	install := func(t *testing.T, k *Key, at timestamp.Timestamp) {
		t.Helper()
		if err := k.Versions.Install(at, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		wait  bool
		setup func(*testing.T, *Key)
		// The pass reads the initial version and locks got, or asks for
		// another pass; held is what the reader owns afterwards.
		got, held timestamp.Interval
		frozenAt  timestamp.Timestamp
		again     bool
	}{
		{name: "no conflict", setup: func(*testing.T, *Key) {},
			got: timestamp.Span(first, upper), held: timestamp.Span(first, upper)},
		{name: "frozen write at upper settles", wait: true,
			setup: func(t *testing.T, k *Key) { install(t, k, upper); writeLock(t, k, upper, true) },
			got:   timestamp.Span(first, upper.Prev()), held: timestamp.Span(first, upper.Prev()), frozenAt: upper},
		{name: "no-wait settles for a prefix below a frozen point",
			setup: func(t *testing.T, k *Key) { writeLock(t, k, ts(5), true) },
			got:   timestamp.Span(first, ts(5).Prev()), held: timestamp.Span(first, ts(5).Prev()), frozenAt: ts(5)},
		{name: "waiting below a frozen point re-picks", wait: true,
			setup: func(t *testing.T, k *Key) { writeLock(t, k, ts(5), true) },
			got:   timestamp.Empty, held: timestamp.Empty, frozenAt: ts(5), again: true},
		{name: "no-wait with an empty prefix re-picks",
			setup: func(t *testing.T, k *Key) { writeLock(t, k, first, true) },
			got:   timestamp.Empty, held: timestamp.Empty, frozenAt: first, again: true},
		{name: "no-wait takes the prefix below an unfrozen write",
			setup: func(t *testing.T, k *Key) { writeLock(t, k, ts(5), false) },
			got:   timestamp.Span(first, ts(5).Prev()), held: timestamp.Span(first, ts(5).Prev())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(lock.NewWaitGraph(), nil).Key("k")
			tc.setup(t, k)
			v, got, frozenAt, again, err := k.ReadStep(ctx, reader, upper, tc.wait)
			if err != nil {
				t.Fatal(err)
			}
			if frozenAt != tc.frozenAt || again != tc.again {
				t.Fatalf("frozenAt %v again %v, want %v %v", frozenAt, again, tc.frozenAt, tc.again)
			}
			if v.TS != timestamp.Zero || !sameInterval(got, tc.got) {
				t.Fatalf("read version %v locking %v, want the initial version locking %v", v.TS, got, tc.got)
			}
			if held, _ := k.Locks.Owned(reader); !held.Equal(timestamp.NewSet(tc.held)) {
				t.Fatalf("the reader holds %v after the pass, want %v", held, tc.held)
			}
			if !tc.again {
				return
			}
			// Once the missing version is installed, a second pass reads
			// it and locks from just above it to upper.
			install(t, k, tc.frozenAt)
			v, got, _, again, err = k.ReadStep(ctx, reader, upper, tc.wait)
			if err != nil || again {
				t.Fatalf("second pass: again %v, err %v", again, err)
			}
			if want := timestamp.Span(tc.frozenAt.Next(), upper); v.TS != tc.frozenAt || string(v.Value) != "new" || !sameInterval(got, want) {
				t.Fatalf("second pass read %v (%q) locking %v, want the version at %v locking %v", v.TS, v.Value, got, tc.frozenAt, want)
			}
		})
	}

	t.Run("purged", func(t *testing.T) {
		s := New(lock.NewWaitGraph(), nil)
		k := s.Key("k")
		install(t, k, ts(20))
		install(t, k, ts(30))
		if versions, _ := s.PurgeBelow(ts(30)); versions != 1 {
			t.Fatalf("purged %d versions, want the initial one", versions)
		}
		_, _, _, again, err := k.ReadStep(ctx, reader, upper, false)
		if !errors.Is(err, version.ErrPurged) || again {
			t.Fatalf("read below a purged bound: again %v, err %v, want version.ErrPurged", again, err)
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
