package lock

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// BenchmarkReadAcquireRelease measures the uncontended read-lock path:
// acquire an interval, release it.
func BenchmarkReadAcquireRelease(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	req := iv(1, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		owner := Owner(i + 1)
		if _, err := tbl.AcquireRead(ctx, owner, req, Options{}); err != nil {
			b.Fatal(err)
		}
		tbl.ReleaseUnfrozen(owner)
	}
}

// BenchmarkReadFreezeRelease measures the read path of a committing
// transaction that garbage-collects: lock an interval, freeze the prefix
// up to the commit timestamp (splitting the record), release the rest.
func BenchmarkReadFreezeRelease(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		owner := Owner(i + 1)
		base := int64(i) * 10
		if _, err := tbl.AcquireRead(ctx, owner, iv(base+1, base+100), Options{Partial: true}); err != nil {
			b.Fatal(err)
		}
		tbl.FreezeReadIn(owner, iv(base+1, base+5))
		tbl.ReleaseUnfrozen(owner)
		if i%1024 == 1023 {
			// keep the table from growing unboundedly
			tbl.PurgeFrozenBelow(ts(base))
		}
	}
}

// BenchmarkWriteAcquireFreeze measures the write path a committing
// transaction takes: lock a point, freeze it.
func BenchmarkWriteAcquireFreeze(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		owner := Owner(i + 1)
		point := timestamp.New(int64(i+1), 0)
		if _, err := tbl.AcquireWrite(ctx, owner, timestamp.NewSet(timestamp.Point(point)), Options{}); err != nil {
			b.Fatal(err)
		}
		tbl.FreezeWriteAt(owner, point)
		if i%1024 == 1023 {
			// keep the table from growing unboundedly
			tbl.PurgeFrozenBelow(point)
		}
	}
}

// BenchmarkOwned measures the commit-time candidate computation input.
func BenchmarkOwned(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	const owner = Owner(1)
	for i := int64(0); i < 16; i++ {
		_, _ = tbl.AcquireRead(ctx, owner, iv(i*10, i*10+5), Options{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ro, _ := tbl.Owned(owner)
		if ro.IsEmpty() {
			b.Fatal("owned must not be empty")
		}
	}
}

// BenchmarkOwnedInto measures the same computation with the snapshot
// pair threaded through, as the commit step runs it: after the scratch
// sets have grown once, rebuilding them is allocation-free.
func BenchmarkOwnedInto(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	const owner = Owner(1)
	for i := int64(0); i < 16; i++ {
		_, _ = tbl.AcquireRead(ctx, owner, iv(i*10, i*10+5), Options{})
	}
	var readOrWrite, writeOnly timestamp.Set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.OwnedInto(owner, &readOrWrite, &writeOnly)
		if readOrWrite.IsEmpty() {
			b.Fatal("owned must not be empty")
		}
	}
}

// BenchmarkLockTableContended measures the hot-key, high-waiter-count
// shape: 64 readers are parked on a write-locked range while the
// benchmark loop acquires and releases locks on a disjoint range of the
// same table. Under a broadcast wakeup scheme every release wakes all 64
// waiters (which rescan and re-block, contending on the table mutex);
// under targeted wakeups a release of an unrelated range wakes nobody.
func BenchmarkLockTableContended(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	hot := iv(0, 99)
	if _, err := tbl.AcquireWrite(ctx, Owner(1), timestamp.NewSet(hot), Options{}); err != nil {
		b.Fatal(err)
	}
	const waiters = 64
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(o Owner) {
			defer wg.Done()
			_, _ = tbl.AcquireRead(wctx, o, hot, Options{Wait: true})
		}(Owner(1_000_000 + i))
	}
	// Let the waiters park before timing starts.
	for deadline := time.Now().Add(2 * time.Second); tbl.waiterCount() < waiters; {
		if time.Now().After(deadline) {
			b.Fatal("waiters failed to park")
		}
		time.Sleep(time.Millisecond)
	}
	cold := timestamp.NewSet(iv(1000, 1010))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Owner ids start above the waiter block so no iteration shares
		// an identity (and hence conflict exemption) with a parked reader.
		o := Owner(2_000_000 + i)
		if _, err := tbl.AcquireWrite(ctx, o, cold, Options{}); err != nil {
			b.Fatal(err)
		}
		tbl.ReleaseWrites(o)
	}
	b.StopTimer()
	cancel()
	tbl.ReleaseUnfrozen(Owner(1))
	wg.Wait()
}

// BenchmarkBlockingHandoff measures the blocking path itself: every
// iteration parks one writer on a held point and wakes it with the
// holder's release, so the waiter park/wake machinery runs once per op.
func BenchmarkBlockingHandoff(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	hot := timestamp.NewSet(iv(5, 5))
	start := make(chan struct{})
	finished := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range start {
			if _, err := tbl.AcquireWrite(ctx, Owner(2), hot, Options{Wait: true}); err != nil {
				b.Error(err)
				return
			}
			tbl.ReleaseWrites(Owner(2))
			finished <- struct{}{}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.AcquireWrite(ctx, Owner(1), hot, Options{Wait: true}); err != nil {
			b.Fatal(err)
		}
		start <- struct{}{}
		// The peer conflicts with the held lock; wait for it to park.
		for tbl.waiterCount() == 0 {
			runtime.Gosched()
		}
		tbl.ReleaseWrites(Owner(1))
		<-finished
	}
	b.StopTimer()
	close(start)
	wg.Wait()
}

// BenchmarkContendedPartialWrite measures partial write acquisition
// against standing read locks.
func BenchmarkContendedPartialWrite(b *testing.B) {
	tbl := NewTable()
	ctx := context.Background()
	for i := int64(0); i < 8; i++ {
		_, _ = tbl.AcquireRead(ctx, Owner(1000+i), iv(i*20, i*20+9), Options{})
	}
	req := timestamp.NewSet(iv(0, 200))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := Owner(i + 1)
		res, err := tbl.AcquireWrite(ctx, owner, req, Options{Partial: true})
		if err != nil || res.Got.IsEmpty() {
			b.Fatalf("%v %v", res, err)
		}
		tbl.ReleaseUnfrozen(owner)
	}
}

// longHistoryTable returns a table holding n frozen read records of n
// other owners: a hot key's history between purges.
func longHistoryTable(b *testing.B, n int) *Table {
	tbl := NewTable()
	ctx := context.Background()
	for i := int64(0); i < int64(n); i++ {
		owner := Owner(1000 + i)
		if _, err := tbl.AcquireRead(ctx, owner, iv(10*i, 10*i+5), Options{}); err != nil {
			b.Fatal(err)
		}
		tbl.FreezeReadIn(owner, iv(10*i, 10*i+5))
	}
	return tbl
}

// BenchmarkReleaseLongHistory measures what a transaction pays to take
// and drop one read lock above a history of 16 and of 1024 records it
// does not own: it should not depend on the history's length.
func BenchmarkReleaseLongHistory(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("frozen=%d", n), func(b *testing.B) {
			tbl := longHistoryTable(b, n)
			ctx := context.Background()
			req := iv(20_000, 20_100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				owner := Owner(5000 + i)
				if _, err := tbl.AcquireRead(ctx, owner, req, Options{}); err != nil {
					b.Fatal(err)
				}
				tbl.ReleaseUnfrozen(owner)
			}
		})
	}
}

// BenchmarkOwnedIntoLongHistory measures the commit step's snapshot for
// a transaction that has frozen nothing yet, above the same histories.
func BenchmarkOwnedIntoLongHistory(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("frozen=%d", n), func(b *testing.B) {
			tbl := longHistoryTable(b, n)
			const owner = Owner(5000)
			if _, err := tbl.AcquireRead(context.Background(), owner, iv(20_000, 20_100), Options{}); err != nil {
				b.Fatal(err)
			}
			var readOrWrite, writeOnly timestamp.Set
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.OwnedInto(owner, &readOrWrite, &writeOnly)
				if readOrWrite.IsEmpty() {
					b.Fatal("owned must not be empty")
				}
			}
		})
	}
}
