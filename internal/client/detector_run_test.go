package client_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// sleepCounter is a Timers that counts SleepStop calls. The deadlock
// detector's loop makes one per poll period, and nothing else of a
// coordinator makes any.
type sleepCounter struct {
	clock.Timers
	n atomic.Int64
}

func (s *sleepCounter) SleepStop(d time.Duration, stop <-chan struct{}) bool {
	s.n.Add(1)
	return s.Timers.SleepStop(d, stop)
}

// TestDetectorRunsOnlyWhileWaiting: the deadlock detector runs only while
// one of its coordinator's lock requests may be parked server-side. An
// MVTIL coordinator never sends such a request, so over a second of
// virtual time it arms no poll timer and polls nobody. A pessimistic
// write that waits on a held write lock is polled for while it waits,
// and the polls stop once it returns.
func TestDetectorRunsOnlyWhileWaiting(t *testing.T) {
	const poll = 10 * time.Millisecond
	v := clock.NewVirtual()
	v.Register() // this goroutine is the timeline's root actor
	t.Cleanup(v.Unregister)
	mem := transport.NewMemSeededTimers(transport.LatencyModel{Base: 100 * time.Microsecond}, 1, v)
	addrs := startServersOn(t, mem, 2, v)
	ctx := context.Background()
	newClient := func(id int32, mode client.Mode, n transport.Network, timers clock.Timers) *client.Client {
		cl, err := client.New(client.Config{ID: id, Servers: addrs, Network: n, Mode: mode,
			Clock: clock.TimersSource{T: v}, Timers: timers, DeadlockPoll: poll})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		return cl
	}
	polls := func(n *countingNetwork) int64 { return n.since(tally{}).byType[wire.TWaitGraphReq] }

	t.Run("never waits", func(t *testing.T) {
		n, timers := newCountingNetwork(mem), &sleepCounter{Timers: v}
		cl := newClient(1, client.ModeTILEarly, n, timers)
		start := v.Now()
		for i := range 200 {
			tx, err := cl.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			k := keysOn("til", i%len(addrs), len(addrs), 1)[0]
			if _, err := tx.Read(ctx, k); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(ctx, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			v.Sleep(5 * time.Millisecond)
		}
		if took := v.Now().Sub(start); took < time.Second {
			t.Fatalf("200 transactions took %v of virtual time, want at least 1s", took)
		}
		if got := timers.n.Load(); got != 0 {
			t.Errorf("an MVTIL coordinator made %d SleepStop calls, want none: none of its requests waits", got)
		}
		if got := polls(n); got != 0 {
			t.Errorf("an MVTIL coordinator sent %d wait-graph polls, want none", got)
		}
	})

	t.Run("polls only while waiting", func(t *testing.T) {
		n := newCountingNetwork(mem)
		holder := newClient(2, client.ModePessimistic, mem, v)
		waiter := newClient(3, client.ModePessimistic, n, &sleepCounter{Timers: v})
		k := keysOn("held", 0, len(addrs), 1)[0]
		hold, err := holder.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := hold.Write(ctx, k, []byte("holder")); err != nil {
			t.Fatal(err)
		}
		tx, err := waiter.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var werr error
		returned := clock.NewJoin(v, 1)
		v.Go(func() {
			defer returned.Done()
			werr = tx.Write(ctx, k, []byte("waiter"))
		})
		// Half a period off the detector's wake-ups, so no scan and no
		// release share an instant.
		v.Sleep(5*poll + poll/2)
		if got := polls(n); got == 0 {
			t.Fatalf("no wait-graph poll in %v of a write waiting on a held lock", 5*poll+poll/2)
		}
		if err := hold.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		returned.Wait()
		if werr != nil {
			t.Fatalf("the waiting write, once the holder committed: %v", werr)
		}
		before := polls(n)
		v.Sleep(10 * poll)
		if got := polls(n) - before; got != 0 {
			t.Errorf("%d wait-graph polls in the ten poll periods after the write returned, want none", got)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	})
}
