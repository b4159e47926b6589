package keyspace

import (
	"context"
	"errors"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

// commit installs a version of k at at for owner, which write-locks it
// first, and freezes it there, trimming nothing.
func commit(t *testing.T, k *Key, owner lock.Owner, at timestamp.Timestamp) {
	t.Helper()
	if _, err := k.Locks.AcquireWrite(context.Background(), owner, timestamp.NewSet(timestamp.Point(at)), lock.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Versions.Install(at, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !k.FreezeWrite(owner, at, timestamp.Zero) {
		t.Fatalf("owner %d holds no write lock at %v", owner, at)
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
	if versions, _ := k.Trim(ts(40)); versions != 1 {
		t.Fatalf("trim dropped %d versions, want ⊥ only", versions)
	}
	if err := k.Versions.Install(ts(15), []byte("late")); err != nil {
		t.Fatalf("the running transaction's install at 15: %v", err)
	}
	if !k.FreezeWrite(running, ts(15), ts(40)) {
		t.Fatal("the running transaction lost its write lock at 15")
	}
	if _, err := k.Locks.AcquireWrite(ctx, 3, timestamp.NewSet(timestamp.Point(ts(12))), lock.Options{}); !errors.Is(err, lock.ErrFrozen) {
		t.Fatalf("a write at 12, below the trim: %v, want lock.ErrFrozen", err)
	}
	if err := k.Locks.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTrimRefusesReadsPickedBelowTheFloor: a reader picks the version at
// 10 for a read up to 25 and has not locked yet when a version commits
// at 20 and a trim below 30 drops the one at 10. The trim froze the past
// for writes only, so the reader's lock from 10 up would otherwise
// succeed and read past the version at 20. The table refuses it instead,
// and the read step picks again: the version at 20 up to 25, and
// version.ErrPurged for a read up to 15, which needs what was dropped.
func TestTrimRefusesReadsPickedBelowTheFloor(t *testing.T) {
	ctx := context.Background()
	const reader = lock.Owner(9)
	k := New(lock.NewWaitGraph(), nil).Key("k")
	commit(t, k, 1, ts(10))
	picked, err := k.Versions.LatestBefore(ts(25))
	if err != nil || picked.TS != ts(10) {
		t.Fatalf("picked %v, %v; want the version at 10", picked.TS, err)
	}
	commit(t, k, 2, ts(20))
	if versions, _ := k.Trim(ts(30)); versions != 2 {
		t.Fatalf("trim dropped %d versions, want ⊥ and the one at 10", versions)
	}

	res, err := k.Locks.AcquireRead(ctx, reader, timestamp.Span(picked.TS.Next(), ts(25)), lock.Options{Partial: true})
	if err != nil || !res.Got.IsEmpty() || !res.Frozen || res.FrozenAt.Lo != picked.TS.Next() {
		t.Fatalf("a read picked above the dropped version: %+v %v, want nothing locked and a frozen conflict at its start", res, err)
	}
	v, got, again, err := k.ReadStep(ctx, reader, ts(25), false)
	if err != nil || again || v.TS != ts(20) || got != timestamp.Span(ts(20).Next(), ts(25)) {
		t.Fatalf("read step up to 25: version %v locking %v (again %v, %v), want the version at 20 locking (20, 25]", v.TS, got, again, err)
	}
	if _, _, _, err := k.ReadStep(ctx, reader+1, ts(15), false); !errors.Is(err, version.ErrPurged) {
		t.Fatalf("read step up to 15: %v, want version.ErrPurged", err)
	}
}
