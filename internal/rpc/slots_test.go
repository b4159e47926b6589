package rpc

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// poolConn digs the pooled connection for flow 0 out of a client, for
// white-box assertions on the waiter-slot table.
func poolConn(t *testing.T, c *Client) *conn {
	t.Helper()
	cn, err := c.conn(0)
	if err != nil {
		t.Fatal(err)
	}
	return cn
}

// slotTable snapshots (slots, free) sizes under the connection lock.
func slotTable(cn *conn) (slots, free int) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return len(cn.slots), len(cn.free)
}

// TestCancelledCallReleasesLateResponse is the regression test for the
// ctx-cancel frame leak: a response that arrives after its call was
// cancelled must be released back to the frame pool by the generation
// mismatch (the old map-based demux parked it in an abandoned channel),
// and the slot must be recycled for the next caller.
func TestCancelledCallReleasesLateResponse(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{Base: 60 * time.Millisecond})
	echoServer(t, n, "late", 0)
	c := NewClient(n, "late", 1)
	defer func() { _ = c.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, 0, wire.TStatsReq, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	cn := poolConn(t, c)
	if slots, free := slotTable(cn); slots != 1 || free != 1 {
		t.Fatalf("cancelled call must recycle its slot: slots=%d free=%d", slots, free)
	}

	// The response is still in flight (round trip is 2×60ms); when it
	// lands, the bumped generation must release it, not deliver it.
	deadline := time.Now().Add(2 * time.Second)
	for cn.lateDrops.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late response never released by generation mismatch")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next call reuses the recycled slot — and can never observe
	// the cancelled call's response, which the demux already dropped.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	f, err := c.Call(ctx2, 0, wire.TStatsReq, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if slots, _ := slotTable(cn); slots != 1 {
		t.Fatalf("sequential calls must reuse the one slot, table grew to %d", slots)
	}
}

// TestRouteGenerationChecks exercises the demux routing rules directly:
// a stale generation is dropped without touching the active tenancy, a
// matching response is delivered exactly once, and a duplicate of an
// already-delivered id is released.
func TestRouteGenerationChecks(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	l, err := n.Listen("routes")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	c := NewClient(n, "routes", 1)
	defer func() { _ = c.Close() }()
	cn := poolConn(t, c)

	idx, s, id, err := cn.acquire()
	if err != nil {
		t.Fatal(err)
	}
	frame := func(id uint64) *wire.FrameBuf {
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(id, wire.TStatsResp, nil); err != nil {
			t.Fatal(err)
		}
		return fb
	}

	cn.route(frame(callID(idx, s.gen+1))) // stale/future generation
	if got := cn.lateDrops.Load(); got != 1 {
		t.Fatalf("generation mismatch must be dropped and counted, lateDrops=%d", got)
	}
	cn.mu.Lock()
	active := s.active
	cn.mu.Unlock()
	if !active {
		t.Fatal("mismatched response must not claim the active tenancy")
	}

	cn.route(frame(id)) // the real response
	select {
	case f := <-s.ch:
		if f == nil {
			t.Fatal("delivered frame is nil")
		}
		f.Release()
	default:
		t.Fatal("matching response not delivered")
	}

	cn.route(frame(id)) // chaos duplicate: tenancy already claimed
	if got := cn.lateDrops.Load(); got != 2 {
		t.Fatalf("duplicate must be dropped and counted, lateDrops=%d", got)
	}

	cn.route(frame(castFlag | 7)) // no server answers a cast: a stray id like any other
	if got := cn.lateDrops.Load(); got != 3 {
		t.Fatalf("a cast-flagged response must be dropped and counted, lateDrops=%d", got)
	}

	cn.freeSlot(idx, s)
	if slots, free := slotTable(cn); slots != 1 || free != 1 {
		t.Fatalf("slot not recycled: slots=%d free=%d", slots, free)
	}
}

// TestSlotGenerationWraparound pins that correlation ids survive the
// 32-bit generation counter wrapping: calls spanning gen=2^32-1 → 0
// still match their own responses.
func TestSlotGenerationWraparound(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	echoServer(t, n, "wrap", 0)
	c := NewClient(n, "wrap", 1)
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	if f, err := c.Call(ctx, 0, wire.TStatsReq, nil); err != nil {
		t.Fatal(err)
	} else {
		f.Release()
	}
	cn := poolConn(t, c)
	cn.mu.Lock()
	cn.slots[0].gen = math.MaxUint32
	cn.mu.Unlock()

	for i := 0; i < 3; i++ { // gens MaxUint32, 0, 1
		f, err := c.Call(ctx, 0, wire.TStatsReq, nil)
		if err != nil {
			t.Fatalf("call %d across generation wrap: %v", i, err)
		}
		f.Release()
	}
	cn.mu.Lock()
	gen := cn.slots[0].gen
	nslots := len(cn.slots)
	cn.mu.Unlock()
	if nslots != 1 || gen != 2 {
		t.Fatalf("after wrap want 1 slot at gen 2, got %d slots gen %d", nslots, gen)
	}
}

// TestFreelistGrowthUnderConcurrency floods one connection with 1000
// concurrent callers (run with -race): the slot table must grow to
// cover the peak, every slot must return to the freelist, and every
// call must get its own response.
func TestFreelistGrowthUnderConcurrency(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	echoServer(t, n, "grow", 2*time.Millisecond)
	c := NewClient(n, "grow", 1)
	defer func() { _ = c.Close() }()

	const callers = 1000
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
	cn := poolConn(t, c)
	slots, free := slotTable(cn)
	if slots > callers {
		t.Fatalf("slot table grew past the caller peak: %d > %d", slots, callers)
	}
	if free != slots {
		t.Fatalf("slots leaked: %d in table, %d on the freelist", slots, free)
	}
}

// TestCloseMidCallStress closes a client while ~200 calls are parked in
// waiter slots against a server that never replies: every outstanding
// slot must fail fast with ErrClosed — no hang, no lost caller.
func TestCloseMidCallStress(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	l, err := n.Listen("stall")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	var received atomic.Int64
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
					received.Add(1)
				}
			}(conn)
		}
	}()

	const callers = 200
	c := NewClient(n, "stall", 1)
	results := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := c.Call(context.Background(), 0, wire.TStatsReq, nil)
			results <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < callers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d calls reached the server", received.Load(), callers)
		}
		time.Sleep(time.Millisecond)
	}
	_ = c.Close()
	for i := 0; i < callers; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("caller %d: want ErrClosed, got %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d hung across Close", i)
		}
	}
}

// TestCallCastZeroAllocSteadyState extends the frame-path zero-alloc
// gate across the whole mux: a steady-state Call round trip — client
// encode, batcher flush, server inline dispatch, reply flush, demux
// delivery — and a steady-state Cast must not allocate. The budget is
// <1 alloc/op rather than exactly 0 because a GC between runs may clear
// the frame pool and slice doubling amortizes to a fraction; a real
// per-op allocation (the old per-call waiter channel, a per-reply
// closure) averages ≥1 and fails.
func TestCallCastZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := transport.NewMem(transport.LatencyModel{})
	echoServer(t, n, "zeroalloc", 0)
	c := NewClient(n, "zeroalloc", 1)
	defer func() { _ = c.Close() }()
	ctx := context.Background()

	call := func() {
		f, err := c.Call(ctx, 0, wire.TStatsReq, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	for i := 0; i < 64; i++ {
		call() // reach steady state: slot table, batcher arrays, pipe queues
	}
	if avg := testing.AllocsPerRun(400, call); avg >= 1 {
		t.Errorf("steady-state Call: %v allocs/op, want 0", avg)
	}
	// Casts are not paced by replies: a burst can outrun the server and
	// drain a frame pool that only ever held a call's two frames. Stock
	// the pool with a burst first; the call behind it (per-flow FIFO)
	// returns once the server has released every cast frame.
	for i := 0; i < 512; i++ {
		if err := c.Cast(0, wire.TStatsReq, nil); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if avg := testing.AllocsPerRun(400, func() {
		if err := c.Cast(0, wire.TStatsReq, nil); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("steady-state Cast: %v allocs/op, want 0", avg)
	}
}

// TestStartedCallCancelFreesSlot: a started call whose context is done
// by the time it is waited on gives its slot back, and the late reply
// is dropped by the generation check — the Pending half of
// TestCancelledCallReleasesLateResponse.
func TestStartedCallCancelFreesSlot(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{Base: 20 * time.Millisecond})
	echoServer(t, n, "started", 0)
	c := NewClient(n, "started", 1)
	defer func() { _ = c.Close() }()

	p, err := c.Start(0, wire.TStatsReq, nil)
	if err != nil {
		t.Fatal(err)
	}
	cn := poolConn(t, c)
	if slots, free := slotTable(cn); slots != 1 || free != 0 {
		t.Fatalf("a started call holds its slot: slots=%d free=%d", slots, free)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait under a cancelled context: %v, want Canceled", err)
	}
	if slots, free := slotTable(cn); slots != 1 || free != 1 {
		t.Fatalf("a cancelled started call must free its slot: slots=%d free=%d", slots, free)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cn.lateDrops.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late reply never released by generation mismatch")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPendingRepliesOutOfOrder: calls started on two connections and
// waited on in start order each get their own reply when the second
// reply arrives first — the first server answers only once the second
// reply has been delivered to its waiter slot.
func TestPendingRepliesOutOfOrder(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	var second Pending
	started := make(chan struct{})
	// claimed reports whether the demux has delivered second's reply.
	claimed := func() bool {
		second.cn.mu.Lock()
		defer second.cn.mu.Unlock()
		return !second.s.active
	}
	serve := func(addr string, holdBack bool) {
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = l.Close() })
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { _ = conn.Close() })
			ServeConn(conn, func(wire.MsgType) bool { return holdBack }, func(f *wire.FrameBuf, reply Reply) {
				if holdBack {
					<-started
					for !claimed() {
						time.Sleep(time.Millisecond)
					}
				}
				reply(f.Type()+1, wire.Raw(f.Body()))
			}, nil)
		}()
	}
	serve("one", true)
	serve("two", false)
	c1, c2 := NewClient(n, "one", 1), NewClient(n, "two", 1)
	defer func() { _, _ = c1.Close(), c2.Close() }()

	first, err := c1.Start(0, wire.TStatsReq, wire.Raw("first"))
	if err != nil {
		t.Fatal(err)
	}
	if second, err = c2.Start(0, wire.TStatsReq, wire.Raw("second")); err != nil {
		t.Fatal(err)
	}
	close(started)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, tc := range []struct {
		p    Pending
		want string
	}{{first, "first"}, {second, "second"}} {
		f, err := tc.p.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(f.Body()); got != tc.want {
			t.Errorf("waited for %q, got %q", tc.want, got)
		}
		f.Release()
	}
	for _, c := range []*Client{c1, c2} {
		if slots, free := slotTable(poolConn(t, c)); slots != 1 || free != 1 {
			t.Errorf("%s: slots=%d free=%d after both replies, want the one slot free", c.Addr(), slots, free)
		}
	}
}
