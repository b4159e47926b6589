package clock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestSkewedAdvanceTo covers the Advancer passthrough: a Skewed over an
// advanceable base must forward AdvanceTo (offset-compensated), and a
// Skewed over a plain source must no-op.
func TestSkewedAdvanceTo(t *testing.T) {
	m := &Manual{}
	s := NewSkewed(m, -5)
	s.AdvanceTo(100)
	if got := s.Now(); got != 100 {
		t.Fatalf("after AdvanceTo(100): Now() = %d, want 100", got)
	}
	if got := m.Now(); got != 105 {
		t.Fatalf("base not advanced with offset compensation: base.Now() = %d, want 105", got)
	}
	// Advancing backwards never moves the clock back.
	s.AdvanceTo(50)
	if got := s.Now(); got != 100 {
		t.Fatalf("backwards AdvanceTo moved the clock: Now() = %d, want 100", got)
	}
	// Through Process (the §8.1 path that used to drop the advance).
	p := NewProcess(NewSkewed(&Manual{}, 3), 1)
	p.AdvanceTo(200)
	if ts := p.Now(); ts.Time <= 200 {
		t.Fatalf("Process over Skewed over Manual did not advance: Now().Time = %d, want > 200", ts.Time)
	}
	// Non-advanceable base: no panic, monotonic floor still raised.
	fixed := NewSkewed(System{}, 0)
	fixed.AdvanceTo(0)
}

// TestVirtualSleepJumps checks that sleeping on an otherwise-quiescent
// timeline costs (almost) no wall clock and moves virtual now exactly.
func TestVirtualSleepJumps(t *testing.T) {
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	start := v.Now()
	wall := time.Now()
	v.Sleep(10 * time.Second)
	if elapsed := time.Since(wall); elapsed > time.Second {
		t.Fatalf("virtual sleep took %v of wall clock", elapsed)
	}
	if got := v.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("virtual now advanced by %v, want 10s", got)
	}
}

// TestVirtualFiringOrder checks the (deadline, insertion) total order:
// three sleepers with distinct deadlines wake in deadline order even
// though they were started in reverse.
func TestVirtualFiringOrder(t *testing.T) {
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	var mu sync.Mutex
	var order []int
	join := NewJoin(v, 3)
	for _, d := range []int{3, 2, 1} {
		d := d
		v.Go(func() {
			defer join.Done()
			v.Sleep(time.Duration(d) * time.Second)
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
		})
	}
	join.Wait()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wake order %v, want [1 2 3]", order)
	}
}

// TestVirtualWaiterCredit checks that a Wake delivered while parked
// unblocks without advancing time, and a Wake delivered while running
// is buffered and absorbed by the next Park.
func TestVirtualWaiterCredit(t *testing.T) {
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	w := v.NewWaiter()
	start := v.Now()
	done := make(chan struct{})
	v.Go(func() {
		w.Park()
		close(done)
	})
	// Give the child a chance to park, then wake it; time must not move
	// (the parent stays active throughout, so no advance can happen).
	time.Sleep(time.Millisecond)
	w.Wake()
	<-done
	if !v.Now().Equal(start) {
		t.Fatalf("waiter handoff advanced virtual time by %v", v.Now().Sub(start))
	}
	// Buffered wake: Wake before Park returns immediately.
	w.Wake()
	w.Park()
	// Drain discards a buffered wake.
	w.Wake()
	w.Drain()
}

// TestVirtualContextDeadline checks that a virtual timeout context
// expires by timeline jump when all actors are parked on it, and that
// cancel cuts the timer.
func TestVirtualContextDeadline(t *testing.T) {
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	ctx, cancel := v.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d, ok := ctx.Deadline(); !ok || d.Sub(v.Now()) != 30*time.Second {
		t.Fatalf("deadline %v not 30s from now", d)
	}
	w := v.NewWaiter()
	start := v.Now()
	wall := time.Now()
	var err error
	join := NewJoin(v, 1)
	v.Go(func() {
		defer join.Done()
		err = w.ParkCtx(ctx)
	})
	// Parent parks so the only way forward is the ctx deadline.
	join.Wait()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ParkCtx returned %v, want DeadlineExceeded", err)
	}
	if got := v.Now().Sub(start); got != 30*time.Second {
		t.Fatalf("timeline advanced %v, want 30s", got)
	}
	if elapsed := time.Since(wall); elapsed > time.Second {
		t.Fatalf("virtual timeout took %v of wall clock", elapsed)
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}

	// A canceled context stops occupying the heap: sleeping past its
	// former deadline must not fire it.
	ctx2, cancel2 := v.WithTimeout(context.Background(), time.Second)
	cancel2()
	if !errors.Is(ctx2.Err(), context.Canceled) {
		t.Fatalf("ctx2.Err() = %v, want Canceled", ctx2.Err())
	}
	v.Sleep(2 * time.Second)

	// Wake beats deadline: ParkCtx returns nil and the deadline timer
	// is detached from the waiter.
	ctx3, cancel3 := v.WithTimeout(context.Background(), time.Hour)
	defer cancel3()
	w3 := v.NewWaiter()
	got := make(chan error, 1)
	join3 := NewJoin(v, 1)
	v.Go(func() {
		defer join3.Done()
		got <- w3.ParkCtx(ctx3)
	})
	time.Sleep(time.Millisecond)
	w3.Wake()
	join3.Wait()
	if err := <-got; err != nil {
		t.Fatalf("ParkCtx after Wake = %v, want nil", err)
	}
}

// TestVirtualSleepStop checks both outcomes: the stop channel closing
// first (canceled, true) and the deadline arriving first (false).
func TestVirtualSleepStop(t *testing.T) {
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	// Deadline first: nothing stops it, returns false after a jump.
	stop := make(chan struct{})
	if v.SleepStop(time.Second, stop) {
		t.Fatal("SleepStop returned true with an open stop channel")
	}
	// Stop first: the parent closes stop while the child sleeps.
	var stopped bool
	var wg sync.WaitGroup
	wg.Add(1)
	v.Go(func() {
		defer wg.Done()
		stopped = v.SleepStop(time.Hour, stop)
	})
	time.Sleep(time.Millisecond)
	close(stop)
	// Plain (active) wait, not a Join: the closer staying runnable pins
	// the timeline, so the sleeper must observe the stop, not a fire.
	wg.Wait()
	if !stopped {
		t.Fatal("SleepStop did not observe the stop close")
	}
	if got := v.Now(); got.Sub(v.epoch) >= time.Hour {
		t.Fatalf("stopped sleep still advanced the timeline to %v", got)
	}
}

// TestVirtualAfterFunc checks deferred functions run at their deadline
// on a registered goroutine.
func TestVirtualAfterFunc(t *testing.T) {
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	fired := make(chan time.Time, 1)
	v.AfterFunc(5*time.Second, func() { fired <- v.Now() })
	start := v.Now()
	v.Sleep(10 * time.Second)
	at := <-fired
	if got := at.Sub(start); got != 5*time.Second {
		t.Fatalf("AfterFunc fired at +%v, want +5s", got)
	}
}

// TestVirtualDeadlockPanics checks the diagnostic: a registered actor
// parking with no pending timers and no peer to wake it is a protocol
// violation and must panic, not hang.
func TestVirtualDeadlockPanics(t *testing.T) {
	v := NewVirtual()
	v.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("expected a virtual-time deadlock panic")
		}
		// The panicking goroutine never unparked; rebalance so the
		// deferred Unregister does not fire a second advance.
		v.mu.Lock()
		v.active++
		v.parked--
		v.mu.Unlock()
		v.Unregister()
	}()
	v.NewWaiter().Park()
}
