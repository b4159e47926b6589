package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

// sendFrame encodes body into a pooled frame and sends it (the
// transport consumes the buffer).
func sendFrame(tb testing.TB, c Conn, id uint64, t wire.MsgType, body []byte) {
	tb.Helper()
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(id, t, wire.Raw(body)); err != nil {
		fb.Release()
		tb.Fatal(err)
	}
	if err := c.Send(fb); err != nil {
		tb.Fatal(err)
	}
}

func testNetworkRoundTrip(t *testing.T, n Network, addr string) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer func() { _ = conn.Close() }()
		for {
			f, err := conn.Recv()
			if err != nil {
				done <- nil
				return
			}
			// Re-encode in place: the request's body is copied into the
			// reply before the same buffer is handed back to Send.
			body := append([]byte("echo:"), f.Body()...)
			if err := f.SetFrame(f.ID(), f.Type(), wire.Raw(body)); err != nil {
				done <- err
				return
			}
			if err := conn.Send(f); err != nil {
				done <- err
				return
			}
		}
	}()

	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("ping-%d", i)
		sendFrame(t, c, uint64(i), 1, []byte(msg))
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.ID() != uint64(i) || string(f.Body()) != "echo:"+msg {
			t.Fatalf("frame %d: id=%d body=%q", i, f.ID(), f.Body())
		}
		f.Release()
	}
	_ = c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server goroutine did not exit")
	}
}

func TestMemRoundTrip(t *testing.T) {
	testNetworkRoundTrip(t, NewMem(LatencyModel{}), "srv")
}

func TestMemWithLatency(t *testing.T) {
	n := NewMem(LatencyModel{Base: 2 * time.Millisecond, Jitter: time.Millisecond})
	start := time.Now()
	testNetworkRoundTrip(t, n, "srv")
	// 10 round trips at >=4ms RTT each
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("latency model not applied: took %v", elapsed)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	testNetworkRoundTrip(t, TCP{}, "127.0.0.1:0")
}

func TestMemDialUnknownAddr(t *testing.T) {
	n := NewMem(LatencyModel{})
	if _, err := n.Dial("nowhere"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

// TestMemDialBlocksOnFullBacklog checks that a dial burst beyond the
// backlog queues instead of failing, drains once the listener accepts,
// and that closing the listener unblocks a stuck dial with ErrClosed.
func TestMemDialBlocksOnFullBacklog(t *testing.T) {
	n := NewMem(LatencyModel{})
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 64
	for i := 0; i < backlog; i++ {
		if _, err := n.Dial("srv"); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	extra := make(chan error, 1)
	go func() {
		_, err := n.Dial("srv")
		extra <- err
	}()
	select {
	case err := <-extra:
		t.Fatalf("dial past backlog should block, returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Accepting one connection makes room for the blocked dial.
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-extra:
		if err != nil {
			t.Fatalf("blocked dial after accept: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked dial did not complete after accept")
	}
	// The unblocked dial refilled the accepted slot, so the backlog is
	// full again; the next dial must be unblocked by Close.
	go func() {
		_, err := n.Dial("srv")
		extra <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = l.Close()
	select {
	case err := <-extra:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed from dial unblocked by close, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked dial did not unblock on listener close")
	}
}

// TestMemSeededDeterminism checks the per-link seed discipline: the
// delay schedule of a link depends only on (network seed, address, dial
// index), so interleaving dials to other addresses does not perturb it.
func TestMemSeededDeterminism(t *testing.T) {
	// sample dials "target" and returns the inter-arrival schedule of
	// one 20-frame burst; extraDials dials unrelated addresses first.
	sample := func(seed int64, extraDials int) []time.Duration {
		n := NewMemSeeded(LatencyModel{Base: time.Millisecond, Jitter: 30 * time.Millisecond}, seed)
		for _, addr := range []string{"other-a", "other-b"} {
			l, err := n.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				for {
					if _, err := l.Accept(); err != nil {
						return
					}
				}
			}()
		}
		for i := 0; i < extraDials; i++ {
			if _, err := n.Dial([]string{"other-a", "other-b"}[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		l, err := n.Listen("target")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c, err := n.Dial("target")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		const frames = 20
		start := time.Now()
		for i := 0; i < frames; i++ {
			sendFrame(t, c, uint64(i+1), 1, nil)
		}
		var at []time.Duration
		for i := 0; i < frames; i++ {
			f, err := srv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
			at = append(at, time.Since(start))
		}
		_ = c.Close()
		return at
	}

	base := sample(7, 0)
	perturbed := sample(7, 5)
	// Delivery times are wall-clock so exact equality is not testable;
	// but the sampled jitter sequence is, via the FIFO delivery floor:
	// compare coarse schedules with a generous tolerance.
	for i := range base {
		d := base[i] - perturbed[i]
		if d < 0 {
			d = -d
		}
		if d > 10*time.Millisecond {
			t.Fatalf("frame %d: schedule diverged (%v vs %v) — dial order perturbs the link's jitter stream", i, base[i], perturbed[i])
		}
	}
	other := sample(8, 0)
	var diverged bool
	for i := range base {
		d := base[i] - other[i]
		if d < 0 {
			d = -d
		}
		if d > 10*time.Millisecond {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced the same schedule; seeding is inert")
	}
}

// TestTCPReadTimeout checks that a silent peer trips the configured
// read deadline as ErrTimeout instead of hanging Recv forever.
func TestTCPReadTimeout(t *testing.T) {
	n := TCP{ReadTimeout: 50 * time.Millisecond}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The accepted side shares the listener's ReadTimeout, so a Recv
	// there could time out first and its Close would hand the dialer an
	// EOF instead of the timeout under test: keep the conn open and
	// silent until the dialer has seen its own deadline.
	observed := make(chan struct{})
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		<-observed
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Recv()
	close(observed)
	<-accepted
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v; deadline not applied", elapsed)
	}
}

func TestMemAddressReuseAfterClose(t *testing.T) {
	n := NewMem(LatencyModel{})
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("duplicate listen should fail")
	}
	_ = l.Close()
	l2, err := n.Listen("a")
	if err != nil {
		t.Fatalf("address should be reusable after close: %v", err)
	}
	_ = l2.Close()
}

func TestMemFIFOOrder(t *testing.T) {
	n := NewMem(LatencyModel{Base: time.Millisecond, Jitter: 3 * time.Millisecond})
	l, _ := n.Listen("srv")
	defer func() { _ = l.Close() }()

	received := make(chan uint64, 100)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		for {
			f, err := conn.Recv()
			if err != nil {
				close(received)
				return
			}
			received <- f.ID()
			f.Release()
		}
	}()

	c, _ := n.Dial("srv")
	const frames = 50
	for i := 0; i < frames; i++ {
		sendFrame(t, c, uint64(i), 1, nil)
	}
	for i := 0; i < frames; i++ {
		got := <-received
		if got != uint64(i) {
			t.Fatalf("out of order: got %d want %d (jitter must not reorder)", got, i)
		}
	}
	_ = c.Close()
}

func TestMemRecvUnblocksOnClose(t *testing.T) {
	n := NewMem(LatencyModel{})
	l, _ := n.Listen("srv")
	defer func() { _ = l.Close() }()
	go func() {
		conn, _ := l.Accept()
		_ = conn
	}()
	c, _ := n.Dial("srv")
	var wg sync.WaitGroup
	wg.Add(1)
	var recvErr error
	go func() {
		defer wg.Done()
		_, recvErr = c.Recv()
	}()
	time.Sleep(5 * time.Millisecond)
	_ = c.Close()
	wg.Wait()
	if !errors.Is(recvErr, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", recvErr)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := NewMem(LatencyModel{})
	l, _ := n.Listen("srv")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	_ = l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock")
	}
}

// TestMemPerFramePacing checks the sender-occupancy model: with a
// PerFrame cost, k frames sent back to back cannot all arrive before
// k×PerFrame has elapsed, no matter how fast the propagation is.
func TestMemPerFramePacing(t *testing.T) {
	n := NewMem(LatencyModel{PerFrame: 2 * time.Millisecond})
	l, err := n.Listen("paced")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := n.Dial("paced")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	const frames = 5
	start := time.Now()
	for i := 0; i < frames; i++ {
		sendFrame(t, conn, uint64(i+1), 1, nil)
	}
	for i := 0; i < frames; i++ {
		f, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if elapsed := time.Since(start); elapsed < frames*2*time.Millisecond {
		t.Fatalf("%d frames at 2ms occupancy arrived in %v; the per-frame cost is not being charged", frames, elapsed)
	}
}

// TestMemPerBytePacing checks the bandwidth model: with a PerByte cost,
// k frames of n bytes each cannot all arrive before roughly k×n×PerByte
// has elapsed — the occupancy is charged from the frame length alone,
// without the pipe ever copying the bytes.
func TestMemPerBytePacing(t *testing.T) {
	n := NewMem(LatencyModel{PerByte: 10 * time.Microsecond})
	l, err := n.Listen("bw")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := n.Dial("bw")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	const frames = 5
	body := make([]byte, 1000) // ~1KB => >=10ms occupancy per frame
	start := time.Now()
	for i := 0; i < frames; i++ {
		sendFrame(t, conn, uint64(i+1), 1, body)
	}
	for i := 0; i < frames; i++ {
		f, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	if elapsed := time.Since(start); elapsed < frames*10*time.Millisecond {
		t.Fatalf("%d 1KB frames at 10µs/B occupancy arrived in %v; bytes are not being accounted", frames, elapsed)
	}
}

// makeBatch builds n pooled frames with ids 1..n and the given body.
func makeBatch(tb testing.TB, n int, body []byte) []*wire.FrameBuf {
	tb.Helper()
	fbs := make([]*wire.FrameBuf, n)
	for i := range fbs {
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(uint64(i+1), 1, wire.Raw(body)); err != nil {
			fb.Release()
			tb.Fatal(err)
		}
		fbs[i] = fb
	}
	return fbs
}

// TestMemBatchAmortizesPerFrame pins the coalescing model: a batch of k
// frames is one flush, charged PerFrame once — where k sequential Sends
// pay it k times (TestMemPerFramePacing). All k frames must land well
// before k×PerFrame.
func TestMemBatchAmortizesPerFrame(t *testing.T) {
	const perFrame = 20 * time.Millisecond
	n := NewMem(LatencyModel{PerFrame: perFrame})
	l, err := n.Listen("batched")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := n.Dial("batched")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	const frames = 5
	start := time.Now()
	if err := conn.SendBatch(makeBatch(t, frames, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		f, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := f.ID(); got != uint64(i+1) {
			t.Fatalf("batch broke FIFO: frame %d has id %d", i, got)
		}
		f.Release()
	}
	if elapsed := time.Since(start); elapsed >= frames*perFrame {
		t.Fatalf("batch of %d took %v, >= the %v unbatched floor: PerFrame is not amortized per flush", frames, elapsed, frames*perFrame)
	}
}

// TestTCPSendBatchRoundTrip checks the vectored write path end to end:
// one SendBatch, n frames back to back on the wire, each received
// intact and in order.
func TestTCPSendBatchRoundTrip(t *testing.T) {
	n := TCP{}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acc := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acc <- c
		}
	}()
	conn, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv := <-acc
	defer srv.Close()

	const frames = 7
	body := []byte("batched-over-tcp")
	if err := conn.SendBatch(makeBatch(t, frames, body)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		f, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.ID() != uint64(i+1) || string(f.Body()) != string(body) {
			t.Fatalf("frame %d corrupted: id=%d body=%q", i, f.ID(), f.Body())
		}
		f.Release()
	}
}

// TestMemSendBatchClosedConsumesFrames pins the SendBatch ownership
// rule: even when the connection is already closed, the batch is
// consumed — every entry released and nilled — and the send fails with
// ErrClosed.
func TestMemSendBatchClosedConsumesFrames(t *testing.T) {
	n := NewMem(LatencyModel{})
	l, err := n.Listen("gone")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := n.Dial("gone")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	fbs := makeBatch(t, 3, nil)
	if err := conn.SendBatch(fbs); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	for i, fb := range fbs {
		if fb != nil {
			t.Fatalf("entry %d not consumed on error", i)
		}
	}
}
