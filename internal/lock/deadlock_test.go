package lock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWaitGraphDirectCycle(t *testing.T) {
	g := NewWaitGraph()
	if err := g.Wait(1, []Owner{2}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(2, []Owner{1}, "k"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// The failed registration left no edges; 2 can wait on others.
	if err := g.Wait(2, []Owner{3}, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGraphTransitiveCycle(t *testing.T) {
	g := NewWaitGraph()
	if err := g.Wait(1, []Owner{2}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(2, []Owner{3}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(3, []Owner{1}, "k"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestWaitGraphDoneClearsEdges(t *testing.T) {
	g := NewWaitGraph()
	_ = g.Wait(1, []Owner{2}, "k")
	g.Done(1)
	if g.Waiters() != 0 {
		t.Fatalf("Waiters = %d", g.Waiters())
	}
	if err := g.Wait(2, []Owner{1}, "k"); err != nil {
		t.Fatalf("cycle should be gone: %v", err)
	}
}

func TestWaitGraphSelfEdgeIgnored(t *testing.T) {
	g := NewWaitGraph()
	if err := g.Wait(1, []Owner{1}, "k"); !errors.Is(err, ErrDeadlock) {
		// waiting for yourself is trivially a cycle
		t.Fatalf("self-wait must be a deadlock, got %v", err)
	}
}

func TestWaitGraphEmptyHoldersNoop(t *testing.T) {
	g := NewWaitGraph()
	if err := g.Wait(1, nil, "k"); err != nil {
		t.Fatal(err)
	}
	if g.Waiters() != 0 {
		t.Fatal("no edges should be registered")
	}
}

// TestTableDeadlockDetection builds the classic two-key deadlock across
// two tables sharing one graph: owner 1 holds key A and wants key B,
// owner 2 holds key B and wants key A. The second waiter must fail fast
// with ErrDeadlock, well before any timeout.
func TestTableDeadlockDetection(t *testing.T) {
	g := NewWaitGraph()
	tableA := NewTableDetected(g)
	tableB := NewTableDetected(g)
	ctx := context.Background()

	if _, err := tableA.AcquireWrite(ctx, 1, set(iv(1, 10)), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tableB.AcquireWrite(ctx, 2, set(iv(1, 10)), Options{}); err != nil {
		t.Fatal(err)
	}

	// Owner 1 blocks on B.
	waiting := make(chan error, 1)
	go func() {
		longCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_, err := tableB.AcquireWrite(longCtx, 1, set(iv(5, 5)), Options{Wait: true})
		waiting <- err
	}()
	time.Sleep(20 * time.Millisecond) // let owner 1 register its wait

	// Owner 2 closes the cycle: must detect immediately.
	start := time.Now()
	_, err := tableA.AcquireWrite(ctx, 2, set(iv(5, 5)), Options{Wait: true})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadlock detection should not wait for timeouts")
	}

	// Victim 2 aborts: its locks release and owner 1 proceeds.
	tableB.ReleaseUnfrozen(2)
	select {
	case err := <-waiting:
		if err != nil {
			t.Fatalf("owner 1 should acquire after victim released: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("owner 1 never unblocked")
	}
}

// TestTableDeadlockReadersAndWriters covers the read-write upgrade
// deadlock: both own read locks on the same point and both try to
// upgrade.
func TestTableDeadlockReadersAndWriters(t *testing.T) {
	g := NewWaitGraph()
	tbl := NewTableDetected(g)
	ctx := context.Background()
	if _, err := tbl.AcquireRead(ctx, 1, iv(5, 5), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AcquireRead(ctx, 2, iv(5, 5), Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		longCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_, err := tbl.AcquireWrite(longCtx, 1, set(iv(5, 5)), Options{Wait: true})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_, err := tbl.AcquireWrite(ctx, 2, set(iv(5, 5)), Options{Wait: true})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("upgrade deadlock not detected: %v", err)
	}
	tbl.ReleaseUnfrozen(2)
	if err := <-done; err != nil {
		t.Fatalf("owner 1's upgrade should succeed after victim release: %v", err)
	}
}

// TestNoFalsePositives: plain waiting without a cycle completes without
// ErrDeadlock.
func TestNoFalsePositives(t *testing.T) {
	g := NewWaitGraph()
	tbl := NewTableDetected(g)
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tbl.AcquireWrite(context.Background(), 2, set(iv(5, 5)), Options{Wait: true})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	tbl.ReleaseUnfrozen(1)
	if err := <-done; err != nil {
		t.Fatalf("no cycle existed: %v", err)
	}
	if g.Waiters() != 0 {
		t.Fatalf("graph not cleaned: %d waiters", g.Waiters())
	}
}

// TestWaitGraphEdgesSnapshot: exported edges carry waiter, holder and
// the blocking key, and disappear after Done.
func TestWaitGraphEdgesSnapshot(t *testing.T) {
	g := NewWaitGraph()
	if err := g.Wait(1, []Owner{2, 3}, "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(2, []Owner{3}, "beta"); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges(nil)
	if len(edges) != 3 {
		t.Fatalf("got %d edges: %+v", len(edges), edges)
	}
	byPair := map[[2]Owner]string{}
	for _, e := range edges {
		byPair[[2]Owner{e.Waiter, e.Holder}] = e.Key
	}
	if byPair[[2]Owner{1, 2}] != "alpha" || byPair[[2]Owner{1, 3}] != "alpha" || byPair[[2]Owner{2, 3}] != "beta" {
		t.Fatalf("edges mislabelled: %+v", byPair)
	}
	g.Done(1)
	g.Done(2)
	if got := g.Edges(nil); len(got) != 0 {
		t.Fatalf("edges survived Done: %+v", got)
	}
}

// TestAbortWakesParkedWaiter: an external Abort must wake a parked
// acquisition with ErrDeadlock long before its context deadline.
func TestAbortWakesParkedWaiter(t *testing.T) {
	g := NewWaitGraph()
	tbl := NewTableKeyedTimers(g, "x", nil)
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		longCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		_, err := tbl.AcquireWrite(longCtx, 2, set(iv(5, 5)), Options{Wait: true})
		done <- err
	}()
	for i := 0; !g.IsWaiting(2); i++ {
		if i > 1000 {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	g.Abort(2)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("want ErrDeadlock, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort never woke the waiter")
	}
	if time.Since(start) > time.Second {
		t.Fatal("external abort took too long")
	}
	if g.IsWaiting(2) || g.Waiters() != 0 {
		t.Fatal("graph state not cleaned after abort")
	}
}

// TestAbortBeforeParkStillFires: a victim mark set just before the
// waiter parks (the coordinator's snapshot raced the park) must still
// fail the acquisition fast instead of leaking a full timeout.
func TestAbortBeforeParkStillFires(t *testing.T) {
	g := NewWaitGraph()
	tbl := NewTableKeyedTimers(g, "x", nil)
	ctx := context.Background()
	if _, err := tbl.AcquireWrite(ctx, 1, set(iv(5, 5)), Options{}); err != nil {
		t.Fatal(err)
	}
	g.Abort(2)
	start := time.Now()
	_, err := tbl.AcquireWrite(ctx, 2, set(iv(5, 5)), Options{Wait: true})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("pre-park mark not consumed fast")
	}
	// The mark is one-shot: a later wait of the same owner proceeds.
	tbl.ReleaseUnfrozen(1)
	if _, err := tbl.AcquireWrite(ctx, 2, set(iv(5, 5)), Options{Wait: true}); err != nil {
		t.Fatalf("consumed mark must not poison later waits: %v", err)
	}
}

// TestWaitGraphRacingCycleAlwaysDetected closes over the sharded
// graph's publish-before-check guarantee: two waits racing to close a
// 2-cycle must never both park — at least one of them observes the
// cycle, however the stripe accesses interleave.
func TestWaitGraphRacingCycleAlwaysDetected(t *testing.T) {
	for i := 0; i < 500; i++ {
		g := NewWaitGraph()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = g.Wait(1, []Owner{2}, "k") }()
		go func() { defer wg.Done(); errs[1] = g.Wait(2, []Owner{1}, "k") }()
		wg.Wait()
		if errs[0] == nil && errs[1] == nil {
			t.Fatalf("iteration %d: racing cycle went undetected", i)
		}
		g.Done(1)
		g.Done(2)
	}
}
