package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// startEcho serves addr through ServeConn (dogfooding the server half
// of the mux): every frame is answered with its own body after an
// optional random delay, as type f.Type+1. Delayed frames run as
// "blocking" handlers, so replies are deliberately reordered relative
// to arrival. It returns the resolved listen address (TCP binds
// ephemeral ports) and a counter of accepted connections.
func startEcho(tb testing.TB, n transport.Network, addr string, delay time.Duration) (string, *atomic.Int64) {
	tb.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = l.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			tb.Cleanup(func() { _ = conn.Close() })
			go ServeConn(conn,
				func(wire.MsgType) bool { return delay > 0 },
				func(f *wire.FrameBuf, reply Reply) {
					if delay > 0 {
						time.Sleep(time.Duration(rand.Int63n(int64(delay))))
					}
					// The request body is borrowed; reply copies it into
					// the response frame before the handler returns. An
					// empty body goes back as nil: boxing an empty view
					// of a recycled buffer allocates, and the allocation
					// gates measure through this server.
					var body wire.Message
					if len(f.Body()) > 0 {
						body = wire.Raw(f.Body())
					}
					reply(f.Type()+1, body)
				}, nil)
		}
	}()
	return l.Addr(), &accepted
}

func echoServer(t *testing.T, n transport.Network, addr string, delay time.Duration) *atomic.Int64 {
	t.Helper()
	_, accepted := startEcho(t, n, addr, delay)
	return accepted
}

func TestCallMultiplexing(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	echoServer(t, n, "echo", 2*time.Millisecond)
	c := NewClient(n, "echo", 1)
	defer func() { _ = c.Close() }()

	const inflight = 24
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			f, err := c.Call(ctx, 0, wire.TStatsReq, nil)
			if err != nil {
				errs <- err
				return
			}
			f.Release()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCallTimeout(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{Base: 500 * time.Millisecond})
	echoServer(t, n, "slow", 0)
	c := NewClient(n, "slow", 1)
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, 0, wire.TStatsReq, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestCallAfterCloseFailsFast(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	echoServer(t, n, "echo2", 0)
	c := NewClient(n, "echo2", 2)
	f, err := c.Call(context.Background(), 0, wire.TStatsReq, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	_ = c.Close()
	_, err = c.Call(context.Background(), 0, wire.TStatsReq, nil)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if !strings.Contains(err.Error(), "echo2") {
		t.Fatalf("error must name the server address: %v", err)
	}
	if err := c.Cast(0, wire.TStatsReq, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("cast after close: want ErrClosed, got %v", err)
	}
}

// TestCloseMidCallFailsFast is the shutdown regression test: a call in
// flight when the connection closes must fail fast with ErrClosed
// (wrapped with the server address) — never hang, and never be handed
// some other call's response.
func TestCloseMidCallFailsFast(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	// A sink server that accepts frames and never replies, so the call
	// below can only finish via the close path.
	l, err := n.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn transport.Conn) {
				for {
					f, err := conn.Recv()
					if err != nil {
						return
					}
					f.Release()
				}
			}(conn)
		}
	}()

	c := NewClient(n, "sink", 1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 0, wire.TStatsReq, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the call get in flight
	_ = c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if !strings.Contains(err.Error(), "sink") {
			t.Fatalf("error must name the server address: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung across Close")
	}
}

func TestPeerDisappearsMidCall(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	l, err := n.Listen("flaky")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan transport.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	c := NewClient(n, "flaky", 1)
	defer func() { _ = c.Close() }()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := c.Call(ctx, 0, wire.TStatsReq, nil)
		done <- err
	}()
	srvConn := <-accepted
	time.Sleep(10 * time.Millisecond)
	_ = srvConn.Close() // server dies mid-call
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed when the peer drops, got %v", err)
	}
}

// TestPoolShardsByFlow pins the flow→connection mapping: distinct flows
// spread over the pool (so one saturated socket does not carry
// everyone), while one flow sticks to one connection (per-flow FIFO).
func TestPoolShardsByFlow(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	accepted := echoServer(t, n, "pool", 0)
	const size = 4
	c := NewClient(n, "pool", size)
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	for flow := uint64(0); flow < 2*size; flow++ {
		f, err := c.Call(ctx, flow, wire.TStatsReq, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if got := accepted.Load(); got != size {
		t.Fatalf("expected %d pooled connections after %d flows, got %d", size, 2*size, got)
	}
}

// TestMuxStressNoCrossTalk floods a pooled client from many goroutines
// while the echo server replies after random delays — responses come
// back deliberately reordered — and checks every call receives exactly
// its own response. Run with -race.
func TestMuxStressNoCrossTalk(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	echoServer(t, n, "stress", 3*time.Millisecond)
	c := NewClient(n, "stress", 3)
	defer func() { _ = c.Close() }()

	const goroutines = 16
	calls := 150
	if testing.Short() {
		calls = 30
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < calls; i++ {
				var body [16]byte
				binary.LittleEndian.PutUint64(body[:8], uint64(g))
				binary.LittleEndian.PutUint64(body[8:], uint64(i))
				// Spread flows so every goroutine exercises every
				// pooled connection.
				f, err := c.Call(ctx, uint64(g*calls+i), wire.TStatsReq, wire.Raw(body[:]))
				if err != nil {
					errs <- err
					return
				}
				if len(f.Body()) != 16 ||
					binary.LittleEndian.Uint64(f.Body()[:8]) != uint64(g) ||
					binary.LittleEndian.Uint64(f.Body()[8:]) != uint64(i) {
					errs <- fmt.Errorf("goroutine %d call %d got foreign response body %x", g, i, f.Body())
					return
				}
				f.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServeConnInlineOrder checks the inline path: non-spawned frames
// are handled in arrival order on the read loop, which is the FIFO
// guarantee coordinators rely on for fire-and-forget casts.
func TestServeConnInlineOrder(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	l, err := n.Listen("fifo")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	var mu sync.Mutex
	var order []uint64
	served := make(chan struct{}, 64)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		ServeConn(conn, nil, func(f *wire.FrameBuf, reply Reply) {
			mu.Lock()
			order = append(order, f.ID())
			mu.Unlock()
			served <- struct{}{}
		}, nil)
	}()

	conn, err := n.Dial("fifo")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	const frames = 32
	for i := 1; i <= frames; i++ {
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(uint64(i), wire.TStatsReq, nil); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(fb); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		<-served
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("inline handling out of order: position %d got id %d", i, id)
		}
	}
}

// TestServeConnTimersParkedHandler checks the Handler contract: a
// request whose handler returns its work as the parked function leaves
// the read loop — later frames are served while it is still parked —
// and its frame stays valid, and its Reply bound to its own correlation
// id, until that function returns.
func TestServeConnTimersParkedHandler(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	l, err := n.Listen("parked")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	gate := make(chan struct{})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		ServeConnTimers(conn, func(f *wire.FrameBuf, reply Reply) func(Reply) {
			if string(f.Body()) != "park" {
				reply(f.Type(), wire.Raw(f.Body()))
				return nil
			}
			return func(reply Reply) {
				<-gate
				reply(f.Type(), wire.Raw(f.Body()))
			}
		}, nil, nil)
	}()

	conn, err := n.Dial("parked")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for id, body := range []string{"park", "inline-1", "inline-2"} {
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(uint64(id+1), wire.TStatsReq, wire.Raw(body)); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(fb); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(id uint64, body string) {
		t.Helper()
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		if f.ID() != id || string(f.Body()) != body {
			t.Fatalf("got reply %d %q, want %d %q", f.ID(), f.Body(), id, body)
		}
	}
	expect(2, "inline-1") // served while frame 1's handler is parked
	expect(3, "inline-2")
	close(gate)
	expect(1, "park")
}

// TestCastServedNotAnswered checks what a cast is owed: its handler
// runs — inline or parked — and no frame comes back, whatever the
// handler passes to reply; the calls around it are answered as ever.
func TestCastServedNotAnswered(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	l, err := n.Listen("casts")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	var served atomic.Int64
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		ServeConnTimers(conn, func(f *wire.FrameBuf, reply Reply) func(Reply) {
			served.Add(1)
			if string(f.Body()) != "park" {
				reply(f.Type(), wire.Raw(f.Body()))
				return nil
			}
			return func(reply Reply) { reply(f.Type(), wire.Raw(f.Body())) }
		}, nil, nil)
	}()

	conn, err := n.Dial("casts")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	send := func(id uint64, body string) {
		t.Helper()
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(id, wire.TStatsReq, wire.Raw(body)); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(fb); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() uint64 {
		t.Helper()
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		return f.ID()
	}
	send(castFlag|1, "inline")
	send(castFlag|2, "park")
	send(1, "inline")
	send(2, "park")
	if a, b := recv(), recv(); a+b != 3 || a&castFlag != 0 || b&castFlag != 0 {
		t.Fatalf("got replies %#x and %#x, want the two calls'", a, b)
	}
	// Replies leave in order on one connection: had either cast been
	// answered, its frame would come before this one.
	send(3, "inline")
	if id := recv(); id != 3 {
		t.Fatalf("got reply %#x, want 3", id)
	}
	if got := served.Load(); got != 5 {
		t.Fatalf("served %d requests, want 5: casts are served like calls", got)
	}
}

// TestServeConnHoldsBackStalledReader is the stalled-reader case of a
// hostile peer: it sends requests whose replies are large and reads
// none of them. Once the socket buffers are full the server must stop
// serving — the reply write blocks its read loop, and TCP flow control
// holds the peer back — rather than queue every reply in memory. Mem
// cannot show this: its pipe models no socket buffer.
func TestServeConnHoldsBackStalledReader(t *testing.T) {
	n := transport.TCP{}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	big := make([]byte, 256<<10)
	var served atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		ServeConn(conn, nil, func(f *wire.FrameBuf, reply Reply) {
			served.Add(1)
			reply(f.Type(), wire.Raw(big))
		}, nil)
	}()

	conn, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const requests = 200
	for i := 1; i <= requests; i++ {
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(uint64(i), wire.TStatsReq, nil); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(fb); err != nil {
			t.Fatal(err)
		}
	}
	last := int64(-1)
	for still := 0; still < 5; {
		time.Sleep(40 * time.Millisecond)
		if got := served.Load(); got != last {
			last, still = got, 0
		} else {
			still++
		}
	}
	if last >= requests/2 {
		t.Fatalf("served %d of %d requests to a peer that reads nothing: replies are queued, not held back", last, requests)
	}
	t.Logf("served %d of %d requests before the stalled reader held the server back", last, requests)
	// The peer going away fails the blocked reply write, which ends the
	// read loop.
	_ = conn.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after the stalled peer closed")
	}
}

// TestClientRedialsAfterConnectionDies is the redial contract: the
// server drops the first connection mid-call, and that call fails with
// ErrClosed; the same Client's next Call and Cast go out over a second,
// freshly dialed connection. After Close, calls fail fast and dial
// nothing.
func TestClientRedialsAfterConnectionDies(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	l, err := n.Listen("redial")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	var accepted, served atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { _ = conn.Close() })
			if accepted.Add(1) == 1 {
				// The first connection dies with its first request unanswered.
				go func() {
					if f, err := conn.Recv(); err == nil {
						f.Release()
					}
					_ = conn.Close()
				}()
				continue
			}
			go ServeConn(conn, nil, func(f *wire.FrameBuf, reply Reply) {
				served.Add(1)
				reply(f.Type()+1, wire.Raw(f.Body()))
			}, nil)
		}
	}()

	c := NewClient(n, "redial", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, 0, wire.TStatsReq, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on the dropped connection: want ErrClosed, got %v", err)
	}
	f, err := c.Call(ctx, 0, wire.TStatsReq, wire.Raw("again"))
	if err != nil {
		t.Fatalf("call after the connection died: %v", err)
	}
	if string(f.Body()) != "again" {
		t.Fatalf("echo = %q, want %q", f.Body(), "again")
	}
	f.Release()
	if err := c.Cast(0, wire.TStatsReq, nil); err != nil {
		t.Fatalf("cast after the connection died: %v", err)
	}
	// Per-flow FIFO: once this call is answered, the cast was served.
	if f, err := c.Call(ctx, 0, wire.TStatsReq, nil); err != nil {
		t.Fatal(err)
	} else {
		f.Release()
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("the second connection served %d frames, want 3 (call, cast, call)", got)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("%d connections accepted, want 2", got)
	}

	_ = c.Close()
	if _, err := c.Call(ctx, 0, wire.TStatsReq, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: want ErrClosed, got %v", err)
	}
	if err := c.Cast(0, wire.TStatsReq, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("cast after Close: want ErrClosed, got %v", err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("a call after Close dialed: %d connections accepted, want 2", got)
	}
}
