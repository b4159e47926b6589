package keyspace

import (
	"context"
	"errors"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

// writeLock write-locks the point at for owner.
func writeLock(t *testing.T, k *Key, owner lock.Owner, at timestamp.Timestamp) {
	t.Helper()
	if _, err := k.Locks.AcquireWrite(context.Background(), owner, timestamp.NewSet(timestamp.Point(at)), lock.Options{}); err != nil {
		t.Fatal(err)
	}
}

// commit write-locks at for owner and commits a version of k there,
// trimming nothing.
func commit(t *testing.T, k *Key, owner lock.Owner, at timestamp.Timestamp) {
	t.Helper()
	writeLock(t, k, owner, at)
	if _, err := k.Locks.Commit(owner, at, []byte("v"), timestamp.Zero); err != nil {
		t.Fatal(err)
	}
	k.Locks.ReleaseUnfrozen(owner)
}

// TestTrimStopsAtLiveLocks trims a key below 40 while a running
// transaction holds a write lock from 15: the trim stops there, so the
// transaction still commits at 15, and the past below 15 is frozen
// against any other write.
func TestTrimStopsAtLiveLocks(t *testing.T) {
	ctx := context.Background()
	k := New(lock.NewWaitGraph(), nil).Key("k")
	commit(t, k, 1, ts(10))
	const running = lock.Owner(2)
	if _, err := k.Locks.AcquireWrite(ctx, running, timestamp.NewSet(timestamp.Span(ts(15), ts(20))), lock.Options{}); err != nil {
		t.Fatal(err)
	}
	if versions, _ := k.Locks.Trim(ts(40)); versions != 1 {
		t.Fatalf("trim dropped %d versions, want ⊥ only", versions)
	}
	if _, err := k.Locks.Commit(running, ts(15), []byte("late"), ts(40)); err != nil {
		t.Fatalf("the running transaction's commit at 15: %v", err)
	}
	if _, err := k.Locks.AcquireWrite(ctx, 3, timestamp.NewSet(timestamp.Point(ts(12))), lock.Options{}); !errors.Is(err, lock.ErrFrozen) {
		t.Fatalf("a write at 12, below the trim: %v, want lock.ErrFrozen", err)
	}
	if err := k.Locks.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTrimRefusesReadsPickedBelowTheFloor: versions commit at 10 and 20,
// and a trim below 30 drops ⊥ and the one at 10, with their lock
// records: the past below 30 is one anonymous frozen read range. A read
// up to 25 picks the version at 20 in the critical section in which it
// locks, so it locks (20, 25] and never starts below the floor, where
// no write point is left to stop it. A read up to 15 would need what was
// dropped and fails with version.ErrPurged.
func TestTrimRefusesReadsPickedBelowTheFloor(t *testing.T) {
	ctx := context.Background()
	const reader = lock.Owner(9)
	k := New(lock.NewWaitGraph(), nil).Key("k")
	commit(t, k, 1, ts(10))
	commit(t, k, 2, ts(20))
	if versions, _ := k.Locks.Trim(ts(30)); versions != 2 {
		t.Fatalf("trim dropped %d versions, want ⊥ and the one at 10", versions)
	}
	v, got, err := k.Locks.Read(ctx, reader, ts(25), ts(25), false)
	if err != nil || v.TS != ts(20) || got != timestamp.Span(ts(20).Next(), ts(25)) {
		t.Fatalf("read step up to 25: version %v locking %v (%v), want the version at 20 locking (20, 25]", v.TS, got, err)
	}
	if _, _, err := k.Locks.Read(ctx, reader+1, ts(15), ts(15), false); !errors.Is(err, version.ErrPurged) {
		t.Fatalf("read step up to 15: %v, want version.ErrPurged", err)
	}
}
