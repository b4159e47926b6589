package core_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// clockAt is a process clock stopped at now.
func clockAt(now int64, proc int32) *clock.Process {
	var m clock.Manual
	m.Set(now)
	return clock.NewProcess(&m, proc)
}

// TestPurgeLeavesThePastFrozen runs MVTIL-early (Δ 5) on manual clocks:
// T0 at 10 writes x; R at 20 reads x and writes y, and commits at 20,
// which freezes (10, 20] on x; the store purges below 40; then W, whose
// clock lags at 15, writes x. Committing at 15 would put a version
// inside R's read of x. The purge must have left the past frozen, so W
// aborts and the history certifies. A purge that only dropped the
// frozen records below its bound let W commit there.
func TestPurgeLeavesThePastFrozen(t *testing.T) {
	var rec history.Recorder
	var base clock.Manual
	db := core.New(policy.NewTIL(clock.NewProcess(&base, 1), 5, policy.CommitEarly, true), core.Options{Recorder: &rec})
	ctx := context.Background()
	begin := func(now int64, proc int32) *core.Txn {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tx.SetClock(clockAt(now, proc))
		return tx
	}

	t0 := begin(10, 1)
	if err := t0.Write(ctx, "x", []byte("t0")); err != nil {
		t.Fatal(err)
	}
	if err := t0.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	r := begin(20, 2)
	if _, err := r.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(ctx, "y", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if r.CommitTS.Time != 20 {
		t.Fatalf("R committed at %v, want 20", r.CommitTS)
	}

	db.PurgeBelow(timestamp.New(40, 0))

	w := begin(15, 3)
	err := w.Write(ctx, "x", []byte("w"))
	if err == nil {
		err = w.Commit(ctx)
	}
	if err == nil || w.Committed() {
		t.Fatalf("W, older than the purge bound, committed at %v", w.CommitTS)
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitTrimBoundsKeyState writes one key again and again while the
// clock moves on by more than core.Retention each time, with a reader
// of every version in between. Each commit trims the key below its
// timestamp less the retention, so however many writes there were the
// key keeps at most two versions (the newest, and the one the trim
// keeps below its bound) and two frozen lock records (the frozen past,
// and the newest version with the reads frozen above it). And a write
// transaction on the warmed key allocates its Txn and nothing else:
// version nodes go back to the arena, and the lock lists keep their
// size.
func TestCommitTrimBoundsKeyState(t *testing.T) {
	var now clock.Manual
	db := core.New(policy.NewTIL(clock.NewProcess(&now, 1), 5, policy.CommitEarly, true), core.Options{})
	ctx := context.Background()
	value := []byte("v")
	write := func() {
		now.Advance(core.Retention + 1)
		tx, err := db.Begin(ctx)
		if err == nil {
			err = tx.Write(ctx, "k", value)
		}
		if err == nil {
			err = tx.Commit(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		now.Advance(1)
		tx, err := db.Begin(ctx)
		if err == nil {
			_, err = tx.Read(ctx, "k")
		}
		if err == nil {
			err = tx.Commit(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 200; n++ {
		write()
		read()
		if st := db.StateStats(); st.Versions > 2 || st.FrozenLockEntries > 2 || st.LockEntries != st.FrozenLockEntries {
			t.Fatalf("after %d writes: %d versions, %d lock records of which %d frozen; want at most 2 versions and 2 frozen records, nothing unfrozen",
				n, st.Versions, st.LockEntries, st.FrozenLockEntries)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// The pooled scratch is per P; see TestSpilledFootprintAllocs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 10 {
		write()
	}
	if avg := testing.AllocsPerRun(100, write); avg != 1 {
		t.Errorf("a write transaction on a warmed key: %v allocations, want 1 (the Txn)", avg)
	}
	// AllocsPerRun rounds down, and a node chunk or a grown lock list
	// comes once in many transactions: count the bytes too.
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		write()
	}
	runtime.ReadMemStats(&after)
	if n, txn := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(unsafe.Sizeof(core.Txn{})); n > txn {
		t.Errorf("a write transaction on a warmed key: %d bytes, over the %d bytes of its Txn", n, txn)
	}
}
