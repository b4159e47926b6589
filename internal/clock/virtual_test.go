package clock

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
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

// Allocation counts of one timeline event, on a warmed timeline. A
// sleep entry is recycled, so a sleep allocates nothing whichever way
// it ends (3 each when an entry carried a closure and a fresh channel).
// A deadline or a deferred call still allocates its entry, but no
// longer the closure it used to carry: 5 and 3 then (the AfterFunc case
// below measured 6, its firing sleep included).
const (
	// the vctx, its done channel, the entry and the cancel func
	withTimeoutAllocs = 4
	// the entry, and the closure of the goroutine that runs fn
	afterFuncAllocs = 2
)

// TestVirtualTimerAllocs gates the allocations of the timeline's
// events with one registered actor. Each case also checks that it took
// the path it names.
func TestVirtualTimerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	const d = time.Millisecond
	open, closed := make(chan struct{}), make(chan struct{})
	close(closed)
	fired := 0
	fn := func() { fired++ }
	cases := []struct {
		name string
		// pin keeps a second actor runnable, as the peer that closed
		// stop would be, so the stop is seen before the deadline.
		pin  bool
		want float64
		op   func() bool
	}{
		{"Sleep", false, 0, func() bool {
			before := v.Now()
			v.Sleep(d)
			return v.Now().Sub(before) == d
		}},
		{"SleepStop/deadline first", false, 0, func() bool {
			before := v.Now()
			return !v.SleepStop(d, open) && v.Now().Sub(before) == d
		}},
		{"SleepStop/stop first", true, 0, func() bool {
			before := v.Now()
			return v.SleepStop(d, closed) && v.Now().Equal(before)
		}},
		{"WithTimeout+cancel", false, withTimeoutAllocs, func() bool {
			ctx, cancel := v.WithTimeout(context.Background(), d)
			cancel()
			return ctx.Err() == context.Canceled
		}},
		{"AfterFunc", false, afterFuncAllocs, func() bool {
			before := fired
			v.AfterFunc(d, fn)
			v.Sleep(2 * d)
			return fired == before+1
		}},
	}
	for _, c := range cases {
		if c.pin {
			v.Register()
		}
		ok := true
		got := testing.AllocsPerRun(100, func() { ok = c.op() && ok })
		if c.pin {
			v.Unregister()
		}
		if !ok {
			t.Errorf("%s: did not take the path it names", c.name)
		}
		if got > c.want {
			t.Errorf("%s: %v allocs, ceiling %v", c.name, got, c.want)
		} else {
			t.Logf("%s: %v allocs (ceiling %v)", c.name, got, c.want)
		}
	}
}

// TestVirtualRecycledSleepNeverWakesEarly churns the sleep entries'
// free list: many actors mix Sleep with SleepStop whose stop closes
// before the call, or is closed by a peer before, at or after the
// deadline — same-instant ties included, so the "fired concurrently"
// branch runs too. After each, the actor's next Sleep(d) must move the
// timeline by exactly d: an entry recycled with a signal still in its
// channel would wake it at once. At the end every entry is back on the
// free list, unqueued and empty, and there are no more of them than
// sleepers that were ever in flight at once.
func TestVirtualRecycledSleepNeverWakesEarly(t *testing.T) {
	const actors, rounds = 16, 200
	const ms = time.Millisecond
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	var sleeping, peak atomic.Int64
	sleep := func(f func()) {
		n := sleeping.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		f()
		sleeping.Add(-1)
	}
	join := NewJoin(v, actors)
	for a := 0; a < actors; a++ {
		rng := rand.New(rand.NewSource(int64(a) + 1))
		v.Go(func() {
			defer join.Done()
			for r := 0; r < rounds; r++ {
				d := time.Duration(1+rng.Intn(3)) * ms
				switch rng.Intn(4) {
				case 0:
					sleep(func() { v.Sleep(d) })
				case 1:
					stop := make(chan struct{})
					close(stop)
					sleep(func() { v.SleepStop(d, stop) })
				default:
					stop := make(chan struct{})
					at := d + time.Duration(rng.Intn(3)-1)*ms
					closer := NewJoin(v, 1)
					v.Go(func() {
						defer closer.Done()
						sleep(func() { v.Sleep(at) })
						close(stop)
					})
					sleep(func() { v.SleepStop(d, stop) })
					closer.Wait()
				}
				d = time.Duration(1+rng.Intn(3)) * ms
				before := v.Now()
				sleep(func() { v.Sleep(d) })
				if got := v.Now().Sub(before); got != d {
					t.Errorf("actor %d round %d: Sleep(%v) moved the timeline %v", a, r, d, got)
					return
				}
			}
		})
	}
	join.Wait()

	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.timers) != 0 {
		t.Errorf("%d timers still pending", len(v.timers))
	}
	if n := int64(len(v.free)); n == 0 || n > peak.Load() {
		t.Errorf("free list holds %d entries, peak sleepers %d", n, peak.Load())
	}
	for i, e := range v.free {
		if e.idx != -1 || len(e.wake) != 0 || e.ctx != nil || e.fn != nil {
			t.Errorf("free entry %d: idx %d, %d signals queued, ctx %v, fn set %v", i, e.idx, len(e.wake), e.ctx != nil, e.fn != nil)
		}
	}
}

// BenchmarkVirtualSleep measures the timeline's own cost per modelled
// event: a sleeper and a peer take turns, each sleeping 1µs and then
// waking the other, so one iteration is two sleeps, two advances and
// two credited handoffs.
func BenchmarkVirtualSleep(b *testing.B) {
	v := NewVirtual()
	v.Register()
	defer v.Unregister()
	mine, peer := v.NewWaiter(), v.NewWaiter()
	done := false
	join := NewJoin(v, 1)
	v.Go(func() {
		defer join.Done()
		for {
			peer.Park()
			if done {
				return
			}
			v.Sleep(time.Microsecond)
			mine.Wake()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Sleep(time.Microsecond)
		peer.Wake()
		mine.Park()
	}
	b.StopTimer()
	done = true
	peer.Wake()
	join.Wait()
}
