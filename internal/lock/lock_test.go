package lock

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// TestFrozenReadHistoryCoalesces pins what a key keeps of its readers:
// one anonymous frozen range per version, however many read it. A
// thousand readers of the version at v, committing in shuffled order,
// leave the write point and one range; every point they froze still
// turns a writer away for good; none of them owns anything afterwards;
// and a hundred more readers cost the warmed table no allocation. A
// reader that also wrote the key keeps its commit point as its own
// frozen write, and the range stops just below it.
func TestFrozenReadHistoryCoalesces(t *testing.T) {
	const (
		v       = 10
		delta   = 2000
		readers = 1000
		writer  = Owner(1)
		fresh   = Owner(1 << 40)
	)
	ctx := context.Background()
	tbl := NewTable()
	if _, err := tbl.AcquireWrite(ctx, writer, set(timestamp.Point(mp(v))), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(writer, mp(v), nil, timestamp.Zero); err != nil {
		t.Fatal(err)
	}
	tbl.ReleaseUnfrozen(writer)
	reader := func(i int) Owner { return Owner(2 + i) }

	// Every reader holds (v, v+delta] before the first commits; reader i
	// commits at v+1+i, in shuffled order.
	for i := range readers {
		if _, err := tbl.AcquireRead(ctx, reader(i), mspan(v+1, v+delta), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(readers) {
		tbl.FreezeReadIn(reader(i), mspan(v+1, v+1+i))
		tbl.ReleaseUnfrozen(reader(i))
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []EntryInfo{
		{Interval: timestamp.Point(mp(v)), Owner: writer, Mode: ModeWrite, Frozen: true},
		{Interval: mspan(v+1, v+readers), Owner: anonymous, Mode: ModeRead, Frozen: true},
	}
	if got := tbl.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("after %d readers the table holds %d records %v, want %v", readers, len(got), got[:min(len(got), 4)], want)
	}
	// The write point and the range above it are one stored record.
	if s := tbl.Stats(); s.Frozen != 1 || s.Entries != 1 {
		t.Fatalf("after %d readers the table stores %+v, want one frozen record", readers, s)
	}
	for p := v; p <= v+readers; p++ {
		if _, err := tbl.AcquireWrite(ctx, fresh, set(timestamp.Point(mp(p))), Options{}); !errors.Is(err, ErrFrozen) {
			t.Fatalf("write at point %d: %v, want ErrFrozen", p, err)
		}
	}
	for i := range readers {
		if rw, w := tbl.Owned(reader(i)); !rw.IsEmpty() || !w.IsEmpty() {
			t.Fatalf("finished reader %d owns %v, %v", reader(i), rw, w)
		}
	}

	next := readers
	another := func() {
		o := reader(next)
		if _, err := tbl.AcquireRead(ctx, o, mspan(v+1, v+delta), Options{}); err != nil {
			t.Fatal(err)
		}
		tbl.FreezeReadIn(o, mspan(v+1, v+1+next%readers))
		tbl.ReleaseUnfrozen(o)
		next++
	}
	if avg := testing.AllocsPerRun(100, another); avg != 0 {
		t.Errorf("a reader's lock, freeze and release over the warmed table: %v allocs, want 0", avg)
	}
	if got := tbl.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("after %d more readers the table holds %d records, want %v", next-readers, len(got), want)
	}

	rw, c := reader(next), v+readers+5
	if _, err := tbl.AcquireRead(ctx, rw, mspan(v+1, v+delta), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AcquireWrite(ctx, rw, set(timestamp.Point(mp(c))), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(rw, mp(c), nil, timestamp.Zero); err != nil {
		t.Fatal(err)
	}
	tbl.FreezeReadIn(rw, mspan(v+1, c))
	tbl.ReleaseUnfrozen(rw)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	want = []EntryInfo{
		want[0],
		{Interval: mspan(v+1, c-1), Owner: anonymous, Mode: ModeRead, Frozen: true},
		{Interval: timestamp.Point(mp(c)), Owner: rw, Mode: ModeWrite, Frozen: true},
	}
	if got := tbl.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("after a reader that wrote at %d: %v, want %v", c, got, want)
	}
	if s := tbl.Stats(); s.Frozen != 2 {
		t.Fatalf("after a reader that wrote the table stores %d frozen records, want 2", s.Frozen)
	}
	if all, w := tbl.Owned(rw); !all.Equal(w) || !w.Equal(set(timestamp.Point(mp(c)))) {
		t.Fatalf("the reader that wrote owns %v, %v, want its commit point only", all, w)
	}
}

// TestEntrySize pins the record at 48 bytes: a version's kind rides the
// mode byte, so sharing one record between a write point and the reads
// above it costs no field.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Fatalf("entry is %d bytes, want 48", got)
	}
}

// TestPurgeKeepsRangeAbovePurgedPoint purges between a version's point
// and the end of the reads frozen above it. The point goes, counted
// once, and the reads stay, joined to the frozen past: one anonymous
// range from Zero to their end, so no write lands below the bound or
// in the reads. A later reader of the version extends that range.
func TestPurgeKeepsRangeAbovePurgedPoint(t *testing.T) {
	const (
		v, h   = 10, 20
		writer = Owner(1)
	)
	ctx := context.Background()
	tbl := NewTable()
	if _, err := tbl.AcquireWrite(ctx, writer, set(timestamp.Point(mp(v))), Options{}); err != nil {
		t.Fatal(err)
	}
	tbl.FreezeWriteAt(writer, mp(v))
	tbl.ReleaseUnfrozen(writer)
	reader := func(o Owner, c int) {
		if _, err := tbl.AcquireRead(ctx, o, mspan(v+1, v+100), Options{}); err != nil {
			t.Fatal(err)
		}
		tbl.FreezeReadIn(o, mspan(v+1, c))
		tbl.ReleaseUnfrozen(o)
	}
	reader(2, h)
	if s := tbl.Stats(); s.Frozen != 1 {
		t.Fatalf("before the purge the table stores %d frozen records, want 1", s.Frozen)
	}

	if n := tbl.PurgeFrozenBelow(mp(v + 5)); n != 1 {
		t.Fatalf("purged %d records, want 1: the point", n)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	bare := EntryInfo{Interval: timestamp.Span(timestamp.Zero, mp(h)), Owner: anonymous, Mode: ModeRead, Frozen: true}
	if got := tbl.Snapshot(); !slices.Equal(got, []EntryInfo{bare}) {
		t.Fatalf("after the purge: %v, want %v", got, bare)
	}
	for _, p := range []int{v - 5, v, h} {
		if _, err := tbl.AcquireWrite(ctx, 3, set(timestamp.Point(mp(p))), Options{}); !errors.Is(err, ErrFrozen) {
			t.Fatalf("write at %d after the purge: %v, want ErrFrozen", p, err)
		}
	}

	reader(4, h+5)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	bare.Interval.Hi = mp(h + 5)
	if got := tbl.Snapshot(); !slices.Equal(got, []EntryInfo{bare}) {
		t.Fatalf("after a later reader: %v, want %v", got, bare)
	}
	if s := tbl.Stats(); s.Frozen != 1 {
		t.Fatalf("after a later reader the table stores %d frozen records, want 1", s.Frozen)
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

// TestPurgeFrozenBelow freezes points at 2, 5 and 9 and purges below
// 6: the two points below go, and the past below 6 stays frozen for
// writes while the timestamps between it and 9 stay free.
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
	// The frozen past below the bound and the point at 9.
	if s := tbl.Stats(); s.Entries != 2 || s.Frozen != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if _, err := tbl.AcquireWrite(ctx, 7, set(iv(3, 3)), Options{}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("write below the bound: %v, want ErrFrozen", err)
	}
	if _, err := tbl.AcquireWrite(ctx, 7, set(iv(6, 8)), Options{}); err != nil {
		t.Fatalf("write between the bound and the point at 9: %v", err)
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
							if _, err := tbl.Commit(owner, min, nil, timestamp.Zero); err != nil {
								cancel()
								errs <- err
								return
							}
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
// neither may allocate once the table's entry storage has grown. The
// versions of the frozen points are installed up front, so the write
// passes, which freeze one point again and again, price the locks only.
func TestLockTableSteadyStateAllocs(t *testing.T) {
	tbl := NewTable()
	ctx := context.Background()
	// Other transactions' frozen history, so the splits happen in the
	// middle of a populated table.
	for i := int64(1); i <= 8; i++ {
		if _, err := tbl.AcquireWrite(ctx, Owner(100+i), set(iv(10*i, 10*i)), Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Commit(Owner(100+i), ts(10*i), nil, timestamp.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Install(ts(85), nil); err != nil {
		t.Fatal(err)
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
	// request the last eight of them cut into pieces. With the result
	// reused, neither the grant's nine intervals nor the conflict scan
	// behind it allocate, and the pass stays clear of the history.
	hot := NewTable()
	for i := int64(1); i <= 1000; i++ {
		if _, err := hot.AcquireWrite(ctx, Owner(100+i), set(iv(10*i, 10*i)), Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := hot.Commit(Owner(100+i), ts(10*i), nil, timestamp.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := hot.Install(ts(10_001), nil); err != nil {
		t.Fatal(err)
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

// TestValidateJoinsFrozenWritesToVersions: a frozen write point stands
// for a committed version, so Validate refuses one whose version the
// table does not hold — a freeze without its install — and accepts it
// once the version is there, as Commit leaves it. A version without a
// lock, as a standby keeps it, is legal.
func TestValidateJoinsFrozenWritesToVersions(t *testing.T) {
	ctx := context.Background()
	tbl := NewTable()
	for owner, p := range map[Owner]int64{1: 5, 2: 9} {
		if _, err := tbl.AcquireWrite(ctx, owner, set(iv(p, p)), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if !tbl.FreezeWriteAt(1, ts(5)) {
		t.Fatal("owner 1 holds no write lock at 5")
	}
	if err := tbl.Validate(); err == nil || !strings.Contains(err.Error(), "has no version") {
		t.Fatalf("a frozen write without its version: Validate = %v, want it refused", err)
	}
	if err := tbl.Install(ts(5), []byte("v5")); err != nil {
		t.Fatal(err)
	}
	if fresh, err := tbl.Commit(2, ts(9), []byte("v9"), timestamp.Zero); !fresh || err != nil {
		t.Fatalf("commit at 9: fresh %v, %v", fresh, err)
	}
	if err := tbl.Install(ts(7), []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if fresh, err := tbl.Commit(2, ts(9), []byte("v9"), timestamp.Zero); fresh || err != nil {
		t.Fatalf("the same commit again: fresh %v, %v, want nothing new", fresh, err)
	}
	if _, err := tbl.Commit(3, ts(11), []byte("v11"), timestamp.Zero); err == nil {
		t.Fatal("a commit without its write lock succeeded")
	}
	if vs := tbl.VersionSnapshot(); len(vs) != 4 || vs[3].TS != ts(9) {
		t.Fatalf("versions %+v: the refused commit installed", vs)
	}
}

// TestConcurrentInstallAndRead: eight goroutines install versions of one
// key at their own timestamps, lockless as a standby does, and after
// each install run the read step just above it. The table's mutex
// guards the chain for both: every read finds the version just
// installed, and the history ends whole and sorted.
func TestConcurrentInstallAndRead(t *testing.T) {
	const goroutines, installs = 8, 200
	tbl := NewTable()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= installs; i++ {
				at := timestamp.New(int64(i), int32(g))
				if err := tbl.Install(at, []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
				owner := Owner(g*installs + i)
				v, _, err := tbl.Read(ctx, owner, at.Next(), at.Next(), false)
				if err != nil || v.TS != at {
					t.Errorf("read just above %v: version %v, %v", at, v.TS, err)
					return
				}
				tbl.ReleaseUnfrozen(owner)
			}
		}()
	}
	wg.Wait()
	vs := tbl.VersionSnapshot()
	if len(vs) != goroutines*installs+1 {
		t.Fatalf("%d versions, want %d and ⊥", len(vs), goroutines*installs)
	}
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].TS.Before(vs[i].TS) {
			t.Fatalf("history not sorted at %d: %v then %v", i, vs[i-1].TS, vs[i].TS)
		}
	}
}
