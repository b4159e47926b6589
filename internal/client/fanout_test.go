package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// blackHole listens at addr and reads every frame sent to it without
// ever answering: a server cut off behind a one-way partition. Its
// goroutines are actors of timers.
func blackHole(t *testing.T, n transport.Network, timers clock.Timers, addr string) string {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	timers.Go(func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { _ = conn.Close() })
			timers.Go(func() {
				for {
					f, err := conn.Recv()
					if err != nil {
						return
					}
					f.Release()
				}
			})
		}
	})
	return addr
}

// TestFanOutPartitionedServerTimesOut: a fan-out with one server that
// never answers returns exactly CallTimeout after it started — the
// requests leave together, so one deadline bounds every wait — for the
// read path and the commit's write-lock batches alike. The timeline is
// virtual, so "exactly" is exact.
func TestFanOutPartitionedServerTimesOut(t *testing.T) {
	v := clock.NewVirtual()
	v.Register() // this goroutine is the timeline's root actor
	t.Cleanup(v.Unregister)
	n := transport.NewMemSeededTimers(transport.LatencyModel{Base: 100 * time.Microsecond}, 1, v)
	addrs := []string{startServersOn(t, n, 1, v)[0], blackHole(t, n, v, "hole")}
	const callTimeout = 50 * time.Millisecond
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly,
		Clock: clock.TimersSource{T: v}, Timers: v, CallTimeout: callTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	keys := []string{keysOn("k", 0, len(addrs), 1)[0], keysOn("k", 1, len(addrs), 1)[0]}

	timed := func(what string, op func(kv.Txn) error) {
		t.Helper()
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		start := v.Now()
		err = op(tx)
		if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, kv.ErrAborted) {
			t.Fatalf("%s across the partition: %v, want an abort for the deadline", what, err)
		}
		if took := v.Now().Sub(start); took != callTimeout {
			t.Errorf("%s across the partition took %v, want CallTimeout (%v)", what, took, callTimeout)
		}
	}
	timed("read fan-out", func(tx kv.Txn) error {
		_, err := kv.GetMulti(ctx, tx, keys)
		return err
	})
	timed("write-lock fan-out", func(tx kv.Txn) error {
		for _, k := range keys {
			if err := tx.Write(ctx, k, []byte("v")); err != nil {
				return err
			}
		}
		return tx.Commit(ctx)
	})
}
