package lock

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

func ts(t int64) timestamp.Timestamp              { return timestamp.New(t, 0) }
func iv(lo, hi int64) timestamp.Interval          { return timestamp.Span(ts(lo), ts(hi)) }
func set(ivs ...timestamp.Interval) timestamp.Set { return timestamp.NewSet(ivs...) }

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

func TestReadReadNoConflict(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	r1, err := tbl.AcquireRead(ctx, 1, iv(1, 10), Options{})
	if err != nil || r1.Got != iv(1, 10) {
		t.Fatalf("r1: %v %v", r1, err)
	}
	r2, err := tbl.AcquireRead(ctx, 2, iv(5, 15), Options{})
	if err != nil || r2.Got != iv(5, 15) {
		t.Fatalf("overlapping reads must both succeed: %v %v", r2, err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteConflictsWithRead(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 1, iv(5, 10), Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := tbl.AcquireWrite(ctx, 2, set(iv(7, 7)), Options{})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	// outside the read range: fine
	res, err := tbl.AcquireWrite(ctx, 2, set(iv(11, 11)), Options{})
	if err != nil || !res.Got.Contains(ts(11)) {
		t.Fatalf("non-overlapping write should succeed: %v %v", res, err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(3, 6)), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AcquireWrite(ctx, 2, set(iv(6, 9)), Options{}); !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
}

func TestSameOwnerNeverConflicts(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 1, iv(1, 10), Options{}); err != nil {
		t.Fatal(err)
	}
	// upgrade: same owner writes inside its own read range
	res, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{})
	if err != nil || !res.Got.Contains(ts(5)) {
		t.Fatalf("upgrade failed: %v %v", res, err)
	}
	ro, wo := tbl.Owned(1)
	if !ro.ContainsInterval(iv(1, 10)) {
		t.Fatalf("readOrWrite = %v", ro)
	}
	if !wo.Contains(ts(5)) || wo.Contains(ts(6)) {
		t.Fatalf("writeOnly = %v", wo)
	}
}

func TestUpgradeBlockedByOtherReader(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 1, iv(1, 10), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AcquireRead(ctx, 2, iv(5, 5), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{}); !errors.Is(err, ErrConflict) {
		t.Fatalf("upgrade must be blocked by another reader, got %v", err)
	}
}

func TestReadPartialPrefix(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 9, set(iv(6, 8)), Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := tbl.AcquireRead(ctx, 1, iv(1, 10), Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Got != timestamp.Span(ts(1), ts(6).Prev()) {
		t.Fatalf("prefix = %v, want [1,5]", res.Got)
	}
	if res.Frozen {
		t.Fatalf("conflict was unfrozen, FrozenAt = %v", res.FrozenAt)
	}
}

func TestReadPartialEmptyPrefix(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 9, set(iv(1, 3)), Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := tbl.AcquireRead(ctx, 1, iv(2, 10), Options{Partial: true})
	if err != nil || !res.Got.IsEmpty() {
		t.Fatalf("prefix should be empty: %v %v", res, err)
	}
}

func TestReadReportsFrozenConflict(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 9, set(iv(6, 6)), Options{}); err != nil {
		t.Fatal(err)
	}
	if !tbl.FreezeWriteAt(9, ts(6)) {
		t.Fatal("freeze failed")
	}
	res, err := tbl.AcquireRead(ctx, 1, iv(1, 10), Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Frozen || !res.FrozenAt.Contains(ts(6)) {
		t.Fatalf("FrozenAt = %v", res.FrozenAt)
	}
	if res.Got != timestamp.Span(ts(1), ts(6).Prev()) {
		t.Fatalf("prefix = %v", res.Got)
	}
	// all-or-nothing read across the frozen point fails permanently
	_, err = tbl.AcquireRead(ctx, 2, iv(1, 10), Options{})
	if !errors.Is(err, ErrFrozen) {
		t.Fatalf("want ErrFrozen, got %v", err)
	}
}

func TestWritePartialSkipsConflicts(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 9, iv(4, 6), Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := tbl.AcquireWrite(ctx, 1, set(iv(1, 10)), Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	want := timestamp.NewSet(
		timestamp.Span(ts(1), ts(4).Prev()),
		timestamp.Span(ts(6).Next(), ts(10)),
	)
	if !res.Got.Equal(want) {
		t.Fatalf("Got = %v want %v", res.Got, want)
	}
	if !res.Denied.Equal(set(iv(4, 6))) {
		t.Fatalf("Denied = %v", res.Denied)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteExactFrozenFailsPermanently(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 9, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
	tbl.FreezeWriteAt(9, ts(5))
	_, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{Wait: true})
	if !errors.Is(err, ErrFrozen) {
		t.Fatalf("want ErrFrozen even in Wait mode, got %v", err)
	}
}

func TestWaitUnblocksOnRelease(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tbl.AcquireWrite(context.Background(), 2, set(iv(5, 5)), Options{Wait: true})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	tbl.ReleaseUnfrozen(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter should acquire after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter did not wake up")
	}
}

func TestWaitUnblocksOnFreeze(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan ReadResult, 1)
	go func() {
		// reader waits on the unfrozen write lock, then sees it frozen
		res, _ := tbl.AcquireRead(context.Background(), 2, iv(3, 9), Options{Wait: true, Partial: true})
		done <- res
	}()
	time.Sleep(10 * time.Millisecond)
	tbl.FreezeWriteAt(1, ts(5))
	select {
	case res := <-done:
		if !res.Frozen {
			t.Fatalf("reader should report frozen conflict, got %+v", res)
		}
		if res.Got != timestamp.Span(ts(3), ts(5).Prev()) {
			t.Fatalf("reader prefix = %v", res.Got)
		}
	case <-time.After(time.Second):
		t.Fatal("reader did not wake up")
	}
}

func TestWaitHonorsContext(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.AcquireWrite(context.Background(), 1, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := tbl.AcquireWrite(ctxShort(t), 2, set(iv(5, 5)), Options{Wait: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestFreezeWriteSplitsInterval(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(1, 10)), Options{}); err != nil {
		t.Fatal(err)
	}
	if !tbl.FreezeWriteAt(1, ts(5)) {
		t.Fatal("freeze failed")
	}
	tbl.ReleaseUnfrozen(1) // drops [1,4] and [6,10], keeps frozen [5,5]
	snap := tbl.Snapshot()
	if len(snap) != 1 || !snap[0].Frozen || snap[0].Interval != iv(5, 5) {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestFreezeWriteAtMissingReturnsFalse(t *testing.T) {
	tbl := NewTable()
	if tbl.FreezeWriteAt(1, ts(5)) {
		t.Fatal("freeze of unheld lock must return false")
	}
}

func TestFreezeReadIn(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 1, iv(1, 10), Options{}); err != nil {
		t.Fatal(err)
	}
	tbl.FreezeReadIn(1, iv(3, 6))
	tbl.ReleaseUnfrozen(1)
	snap := tbl.Snapshot()
	if len(snap) != 1 || snap[0].Interval != iv(3, 6) || !snap[0].Frozen || snap[0].Mode != ModeRead {
		t.Fatalf("snapshot = %+v", snap)
	}
	// frozen read locks still block writers permanently
	_, err := tbl.AcquireWrite(ctx, 2, set(iv(4, 4)), Options{})
	if !errors.Is(err, ErrFrozen) {
		t.Fatalf("want ErrFrozen, got %v", err)
	}
}

func TestReleaseReadIn(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 1, iv(1, 10), Options{}); err != nil {
		t.Fatal(err)
	}
	tbl.ReleaseReadIn(1, iv(4, 6))
	ro, _ := tbl.Owned(1)
	want := timestamp.NewSet(
		timestamp.Span(ts(1), ts(4).Prev()),
		timestamp.Span(ts(6).Next(), ts(10)),
	)
	if !ro.Equal(want) {
		t.Fatalf("owned = %v want %v", ro, want)
	}
	// released middle is writable by others now
	if _, err := tbl.AcquireWrite(ctx, 2, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseWritesKeepsReads(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 1, iv(1, 5), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(8, 9)), Options{}); err != nil {
		t.Fatal(err)
	}
	tbl.ReleaseWrites(1)
	ro, wo := tbl.Owned(1)
	if !wo.IsEmpty() {
		t.Fatalf("writes not released: %v", wo)
	}
	if !ro.Equal(set(iv(1, 5))) {
		t.Fatalf("reads lost: %v", ro)
	}
}

func TestIntervalCompression(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	// many overlapping acquisitions by the same owner collapse to one entry
	for i := int64(0); i < 50; i++ {
		if _, err := tbl.AcquireRead(ctx, 1, iv(i, i+1), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.Stats().Entries; got != 1 {
		t.Fatalf("expected interval compression to 1 entry, got %d", got)
	}
}

func TestPurgeFrozenBelow(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	for _, p := range []int64{2, 5, 9} {
		if _, err := tbl.AcquireWrite(ctx, Owner(p), set(iv(p, p)), Options{}); err != nil {
			t.Fatal(err)
		}
		tbl.FreezeWriteAt(Owner(p), ts(p))
	}
	if n := tbl.PurgeFrozenBelow(ts(6)); n != 2 {
		t.Fatalf("purged %d, want 2", n)
	}
	if s := tbl.Stats(); s.Entries != 1 || s.Frozen != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOwnedEmptyForStranger(t *testing.T) {
	tbl := NewTable()
	ro, wo := tbl.Owned(42)
	if !ro.IsEmpty() || !wo.IsEmpty() {
		t.Fatal("stranger owns nothing")
	}
}

func TestEmptyRequests(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	r, err := tbl.AcquireRead(ctx, 1, timestamp.Interval{Lo: ts(5), Hi: ts(1)}, Options{})
	if err != nil || !r.Got.IsEmpty() {
		t.Fatalf("empty read request: %v %v", r, err)
	}
	w, err := tbl.AcquireWrite(ctx, 1, timestamp.Set{}, Options{})
	if err != nil || !w.Got.IsEmpty() {
		t.Fatalf("empty write request: %v %v", w, err)
	}
	if tbl.Stats().Entries != 0 {
		t.Fatal("no entries expected")
	}
}

// TestConcurrentStress hammers one table from many goroutines and checks
// the exclusivity invariant throughout.
func TestConcurrentStress(t *testing.T) {
	tbl := NewTable()
	const goroutines = 8
	const opsPer = 300
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < opsPer; i++ {
				owner := Owner(id*opsPer + i + 1)
				lo := int64(rng.Intn(40))
				hi := lo + int64(rng.Intn(8))
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				if rng.Intn(2) == 0 {
					res, err := tbl.AcquireRead(ctx, owner, iv(lo, hi), Options{Partial: rng.Intn(2) == 0, Wait: rng.Intn(2) == 0})
					if err == nil && rng.Intn(4) == 0 && !res.Got.IsEmpty() {
						tbl.FreezeReadIn(owner, res.Got)
					}
				} else {
					res, err := tbl.AcquireWrite(ctx, owner, set(iv(lo, hi)), Options{Partial: rng.Intn(2) == 0, Wait: rng.Intn(2) == 0})
					if err == nil && rng.Intn(8) == 0 {
						if min, ok := res.Got.Min(); ok {
							tbl.FreezeWriteAt(owner, min)
						}
					}
				}
				cancel()
				if rng.Intn(2) == 0 {
					tbl.ReleaseUnfrozen(owner)
				}
				if i%50 == 0 {
					if err := tbl.Validate(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeRead.String() != "read" || ModeWrite.String() != "write" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must still render")
	}
}

// TestLockTableSteadyStateAllocs gates the two lock-table passes a
// committing transaction makes over a key: read-lock, freeze the read
// prefix, release the rest; and write-lock, freeze at the commit
// timestamp, release the rest. Both split a record in two or three, and
// neither may allocate once the table's entry storage has grown.
func TestLockTableSteadyStateAllocs(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	// Other transactions' frozen history, so the splits happen in the
	// middle of a populated table.
	for i := int64(0); i < 8; i++ {
		if _, err := tbl.AcquireWrite(ctx, Owner(100+i), set(iv(10*i, 10*i)), Options{}); err != nil {
			t.Fatal(err)
		}
		tbl.FreezeWriteAt(Owner(100+i), ts(10*i))
	}
	readPass := func() {
		if _, err := tbl.AcquireRead(ctx, 1, iv(71, 79), Options{Partial: true}); err != nil {
			t.Fatal(err)
		}
		tbl.FreezeReadIn(1, iv(71, 74))
		tbl.ReleaseUnfrozen(1)
	}
	writeSet := set(iv(81, 89))
	writePass := func() {
		if _, err := tbl.AcquireWrite(ctx, 2, writeSet, Options{Partial: true}); err != nil {
			t.Fatal(err)
		}
		if !tbl.FreezeWriteAt(2, ts(85)) {
			t.Fatal("write lock not held at the commit timestamp")
		}
		tbl.ReleaseUnfrozen(2)
	}
	readPass() // grows entries and maxHi to their working size
	if avg := testing.AllocsPerRun(100, readPass); avg != 0 {
		t.Errorf("read-acquire, freeze-read, release: %v allocs, want 0", avg)
	}
	writePass()
	if avg := testing.AllocsPerRun(100, writePass); avg != 0 {
		t.Errorf("write-acquire, freeze-at, release: %v allocs, want 0", avg)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}

	// A hot key: a thousand frozen points of other owners, and a write
	// request the last seven of them cut into pieces. With the result
	// reused, neither the grant's eight intervals nor the conflict scan
	// behind it allocate, and the pass stays clear of the history.
	hot := NewTable()
	for i := int64(0); i < 1000; i++ {
		if _, err := hot.AcquireWrite(ctx, Owner(100+i), set(iv(10*i, 10*i)), Options{}); err != nil {
			t.Fatal(err)
		}
		hot.FreezeWriteAt(Owner(100+i), ts(10*i))
	}
	hotReq := set(iv(9925, 10_050))
	var res WriteResult
	hotPass := func() {
		if err := hot.AcquireWriteInto(ctx, 3, hotReq, Options{Partial: true}, &res); err != nil {
			t.Fatal(err)
		}
		if !hot.FreezeWriteAt(3, ts(10_001)) {
			t.Fatal("write lock not held at the commit timestamp")
		}
		hot.ReleaseUnfrozen(3)
	}
	hotPass()
	if got, denied := res.Got.NumIntervals(), res.Denied.NumIntervals(); got < 6 || denied < 6 {
		t.Fatalf("the hot pass was granted %d intervals and denied %d, want at least 6 of each", got, denied)
	}
	if avg := testing.AllocsPerRun(100, hotPass); avg != 0 {
		t.Errorf("write-acquire into a reused result over 1000 frozen records, freeze-at, release: %v allocs, want 0", avg)
	}
	if err := hot.Validate(); err != nil {
		t.Fatal(err)
	}
}
