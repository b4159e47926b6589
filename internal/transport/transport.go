// Package transport abstracts the network between coordinators and
// storage servers, with two implementations:
//
//   - Mem: an in-process network with a configurable latency/jitter
//     model, used to reproduce the paper's two test beds (§8.2) on one
//     machine — the "local" bed with a fast predictable network and the
//     "cloud" bed with slow, jittery links;
//   - TCP: real sockets, for running servers and clients as separate
//     processes.
//
// Both carry the framed binary protocol of package wire, so the codec is
// exercised identically in either mode, and both are driven through the
// multiplexed RPC layer of package rpc — coordinators pipeline many
// in-flight requests per connection over Mem and TCP alike, so the two
// beds differ only in where the latency and per-frame cost come from
// (a model here, real syscalls there).
//
// # Buffer ownership
//
// Frames travel in pooled wire.FrameBuf buffers. Send takes ownership
// of the buffer it is passed, success or failure: TCP writes the bytes
// (header and body as one vectored write) and releases the buffer; the
// in-memory transport delivers the very same buffer to the peer,
// copy-free — its latency model accounts the frame's size without ever
// touching the bytes. Recv returns an owned buffer that the receiver
// must Release once done with the frame and everything borrowed from
// its body (see package wire).
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// ErrClosed reports use of a closed connection, listener or network.
var ErrClosed = errors.New("transport: closed")

// ErrUnavailable reports a dial to an address with no listener — the
// peer is down (crashed, not yet started, or partitioned away). It is
// returned wrapped with the address; test with errors.Is. Retryable:
// the peer may come back.
var ErrUnavailable = errors.New("transport: peer unavailable")

// ErrTimeout reports an I/O deadline expiring on a connection with
// configured timeouts. It is returned wrapped; test with errors.Is.
// Retryable: the peer may just be slow or partitioned.
var ErrTimeout = errors.New("transport: i/o timeout")

// Conn is a bidirectional frame stream. Send and Recv are each safe for
// one concurrent caller; use external locking for more.
type Conn interface {
	// Send transmits one frame, taking ownership of fb (even on error):
	// the transport releases it, or hands it to the receiving end. The
	// caller must not touch fb afterwards.
	Send(fb *wire.FrameBuf) error
	// SendBatch transmits every frame in fbs back to back, in order,
	// taking ownership of all of them — even on a partial error, every
	// frame is consumed (released or delivered) and the entries of fbs
	// are left nil, so the caller may recycle the slice but must not
	// touch the frames. The bytes on the wire are identical to len(fbs)
	// sequential Sends; what batching changes is the cost: TCP hands
	// the whole batch to the kernel as one vectored write (one writev
	// for N frames), and Mem charges the PerFrame occupancy once per
	// batch. An empty batch is a no-op.
	SendBatch(fbs []*wire.FrameBuf) error
	// Recv blocks for the next frame. The caller owns the result and
	// must Release it.
	Recv() (*wire.FrameBuf, error)
	// Close tears the connection down, unblocking Recv on both ends.
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Close stops accepting; blocked Accepts return ErrClosed.
	Close() error
	// Addr returns the listen address.
	Addr() string
}

// Network dials and listens.
type Network interface {
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
	// Listen starts accepting at addr.
	Listen(addr string) (Listener, error)
}

// --- in-memory network ------------------------------------------------------

// LatencyModel produces one-way frame delays.
type LatencyModel struct {
	// Base is the fixed one-way latency.
	Base time.Duration
	// Jitter adds a uniform random extra in [0, Jitter).
	Jitter time.Duration
	// PerFrame is the sender-side occupancy per flush: the connection
	// transmits at most one frame — or one coalesced batch — per
	// PerFrame, and Send/SendBatch block the sender until the link is
	// free of earlier flushes (the flush just queued transmits
	// asynchronously — a one-frame device queue, like a socket buffer
	// backpressuring a writer). It is what makes connection pooling and
	// frame coalescing measurable on the in-memory bed — one connection
	// caps at 1/PerFrame flushes per second, so single frames queue
	// behind a busy connection while a batch of n moves n frames in one
	// charge, and an idle connection still sends with zero sender
	// latency. Zero (the default, and both paper beds) models infinite
	// per-connection bandwidth: only Base and Jitter matter.
	PerFrame time.Duration
	// PerByte is additional sender-side occupancy per wire byte
	// (header plus body), i.e. the inverse link bandwidth: a frame
	// occupies its connection for PerFrame + WireLen·PerByte. It is
	// accounted from the frame's length alone — the model never copies
	// or inspects the bytes — and makes value-size sweeps interact
	// with the network model the way they do with a real NIC. Zero
	// (the default) models infinite bandwidth.
	PerByte time.Duration
}

// delay samples one propagation delay.
func (m LatencyModel) delay(rng *rand.Rand) time.Duration {
	d := m.Base
	if m.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(m.Jitter)))
	}
	return d
}

// occupancy is how long a frame of n wire bytes holds the sender busy.
func (m LatencyModel) occupancy(n int) time.Duration {
	return m.PerFrame + time.Duration(n)*m.PerByte
}

// Mem is an in-process Network. The zero value is not usable; call
// NewMem or NewMemSeeded.
//
// Randomness is partitioned per link: the jitter streams of a
// connection are seeded from (network seed, dialed address, per-address
// dial counter), never from a shared generator, so dialing one link
// cannot perturb the delays of another and a fixed seed yields the same
// delay schedule run after run regardless of goroutine interleaving.
type Mem struct {
	model  LatencyModel
	seed   uint64
	timers clock.Timers

	mu        sync.Mutex
	dials     map[string]uint64
	listeners map[string]*memListener
}

var _ Network = (*Mem)(nil)

// NewMem returns an in-memory network with the given latency model and
// the default seed.
func NewMem(model LatencyModel) *Mem { return NewMemSeeded(model, 1) }

// NewMemSeeded returns an in-memory network whose per-link jitter
// streams all derive from seed.
func NewMemSeeded(model LatencyModel, seed int64) *Mem {
	return NewMemSeededTimers(model, seed, nil)
}

// NewMemSeededTimers is NewMemSeeded on an explicit timeline: every
// pacing decision of the latency model — propagation sleeps, sender
// occupancy, backpressure — reads and sleeps on t instead of the wall
// clock, so the fault bed can run the whole network in virtual time.
// A nil t means SystemTimers.
func NewMemSeededTimers(model LatencyModel, seed int64, t clock.Timers) *Mem {
	return &Mem{
		model:     model,
		seed:      uint64(seed),
		timers:    clock.OrSystem(t),
		dials:     make(map[string]uint64),
		listeners: make(map[string]*memListener),
	}
}

// pipeSeed derives the jitter seed for one direction of the n-th
// connection dialed to addr.
func (m *Mem) pipeSeed(addr string, dial uint64, dir uint64) int64 {
	return int64(strhash.Mix64(m.seed ^ strhash.FNV1a64(addr) ^ dial<<1 ^ dir))
}

// Listen implements Network.
func (m *Mem) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &memListener{addr: addr, network: m, backlog: make(chan *memConn, 64), closed: make(chan struct{}), w: m.timers.NewWaiter()}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Network. A full listener backlog blocks the dial (a
// reconnect storm queues instead of failing spuriously); closing the
// listener unblocks it with ErrClosed. Dialing an address with no
// listener fails with ErrUnavailable.
func (m *Mem) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	dial := m.dials[addr]
	m.dials[addr] = dial + 1
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: dial %q: %w", addr, ErrUnavailable)
	}
	a2b := newMemPipe(m.model, m.pipeSeed(addr, dial, 0), m.timers)
	b2a := newMemPipe(m.model, m.pipeSeed(addr, dial, 1), m.timers)
	client := &memConn{send: a2b, recv: b2a}
	server := &memConn{send: b2a, recv: a2b}
	select {
	case l.backlog <- server:
		l.w.Wake()
		return client, nil
	case <-l.closed:
		return nil, fmt.Errorf("transport: dial %q: %w", addr, ErrClosed)
	}
}

// unregister removes a closed listener.
func (m *Mem) unregister(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

type memListener struct {
	addr    string
	network *Mem
	backlog chan *memConn
	// w parks the accepting goroutine so the fault bed's virtual
	// timeline knows it is quiescent; dials and Close wake it.
	w clock.Waiter

	closeOnce sync.Once
	closed    chan struct{}
}

func (l *memListener) Accept() (Conn, error) {
	for {
		select {
		case c := <-l.backlog:
			return c, nil
		default:
		}
		select {
		case <-l.closed:
			return nil, ErrClosed
		default:
		}
		l.w.Park()
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.network.unregister(l.addr)
		l.w.Wake()
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// memPipe is one direction of a connection: frame buffers with delivery
// times. The buffer a sender passes in is the buffer the receiver gets
// out — the pipe never copies frame bytes, it only schedules them.
type memPipe struct {
	model  LatencyModel
	timers clock.Timers

	mu  sync.Mutex
	rng *rand.Rand
	// queue[head:] holds the undelivered frames; popping advances head
	// and the array is rewound once it drains, so the steady state
	// appends into the same backing array instead of reallocating every
	// few frames (queue = queue[1:] would strand the popped prefix).
	queue []timedFrame
	head  int
	// busyUntil is when the sender finishes transmitting the queued
	// frames (the PerFrame/PerByte occupancy); nextAt keeps delivery
	// FIFO.
	busyUntil time.Time
	nextAt    time.Time
	// w parks the receiver when the queue is empty; senders and close
	// wake it (level-triggered, capacity one).
	w      clock.Waiter
	closed bool
}

type timedFrame struct {
	fb        *wire.FrameBuf
	deliverAt time.Time
}

func newMemPipe(model LatencyModel, seed int64, t clock.Timers) *memPipe {
	return &memPipe{model: model, timers: t, rng: rand.New(rand.NewSource(seed)), w: t.NewWaiter()}
}

func (p *memPipe) send(fb *wire.FrameBuf) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fb.Release()
		return ErrClosed
	}
	// The frame first occupies the sender for its occupancy (queueing
	// behind earlier frames still transmitting — larger frames hold the
	// link longer), then propagates for the sampled delay.
	now := p.timers.Now()
	free := p.busyUntil
	start := p.occupancyStart(now, p.model.occupancy(fb.WireLen()))
	p.busyUntil = start
	// Propagation cannot begin before the send call itself.
	base := start
	if base.Before(now) {
		base = now
	}
	at := base.Add(p.model.delay(p.rng))
	// FIFO: delivery times are monotone within the pipe.
	if at.Before(p.nextAt) {
		at = p.nextAt
	}
	p.nextAt = at
	p.queue = append(p.queue, timedFrame{fb: fb, deliverAt: at})
	p.mu.Unlock()
	p.w.Wake()
	p.backpressure(free)
	return nil
}

// senderWakeGrace bounds how far into the past a flush may backdate its
// occupancy. time.Sleep on a loaded machine overshoots by roughly the
// timer granularity (~1ms), so a parked flusher reliably wakes a little
// after the link frees; anything within the grace is treated as
// back-to-back demand rather than idle link time.
const senderWakeGrace = 2 * time.Millisecond

// occupancyStart returns when the flush being queued finishes
// transmitting, charging its occupancy from the link-free instant when
// the link is still busy — or freed within senderWakeGrace, so a
// flusher that parked in backpressure and woke with sleep overshoot
// transmits back-to-back instead of turning every overshoot into
// phantom idle bandwidth. A genuinely idle link (or a pure-delay model
// with no occupancy, where nobody ever parks) restarts the clock at
// now. Caller holds p.mu.
func (p *memPipe) occupancyStart(now time.Time, occ time.Duration) time.Time {
	start := p.busyUntil
	if start.Before(now) && (occ == 0 || start.Before(now.Add(-senderWakeGrace))) {
		start = now
	}
	return start.Add(occ)
}

// backpressure blocks the sender until the link is free of every
// earlier flush; the flush just queued then transmits asynchronously —
// a one-frame device queue, the way a writer can hand the kernel one
// buffered write and only blocks on the next when the socket buffer is
// still draining. An idle connection therefore sends with zero sender
// latency, while a caller racing a busy one parks — which is what lets
// opportunistic coalescing accumulate frames behind an in-flight flush
// on the in-memory bed. A no-op (free in the past, and always for pure
// Base/Jitter models).
func (p *memPipe) backpressure(free time.Time) {
	if wait := free.Sub(p.timers.Now()); wait > 0 {
		p.timers.Sleep(wait)
	}
}

// sendBatch queues a coalesced flush: the sender occupancy is charged
// once for the whole batch (PerFrame once — the per-flush cost that
// coalescing amortizes — plus PerByte over the batch's total bytes),
// but each frame still samples its own propagation delay from the
// pipe's rng, in order, so the jitter stream consumption is exactly
// what len(fbs) unbatched sends would be — batching never perturbs the
// deterministic delay schedule of later frames.
func (p *memPipe) sendBatch(fbs []*wire.FrameBuf) error {
	if len(fbs) == 0 {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		wire.ReleaseAll(fbs)
		return ErrClosed
	}
	total := 0
	for _, fb := range fbs {
		total += fb.WireLen()
	}
	now := p.timers.Now()
	free := p.busyUntil
	start := p.occupancyStart(now, p.model.occupancy(total))
	p.busyUntil = start
	// Propagation cannot begin before the send call itself.
	base := start
	if base.Before(now) {
		base = now
	}
	for i, fb := range fbs {
		at := base.Add(p.model.delay(p.rng))
		if at.Before(p.nextAt) {
			at = p.nextAt
		}
		p.nextAt = at
		p.queue = append(p.queue, timedFrame{fb: fb, deliverAt: at})
		fbs[i] = nil
	}
	p.mu.Unlock()
	p.w.Wake()
	p.backpressure(free)
	return nil
}

func (p *memPipe) recv() (*wire.FrameBuf, error) {
	for {
		p.mu.Lock()
		if p.head < len(p.queue) {
			tf := p.queue[p.head]
			if wait := tf.deliverAt.Sub(p.timers.Now()); wait > 0 {
				p.mu.Unlock()
				p.timers.Sleep(wait)
				continue
			}
			p.queue[p.head] = timedFrame{}
			p.head++
			if p.head == len(p.queue) {
				p.queue = p.queue[:0]
				p.head = 0
			}
			p.mu.Unlock()
			return tf.fb, nil
		}
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		p.mu.Unlock()
		p.w.Park()
	}
}

// close marks the pipe closed and releases undelivered frames; it is
// idempotent (both conns sharing the pipe close it).
func (p *memPipe) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for i := p.head; i < len(p.queue); i++ {
			p.queue[i].fb.Release()
			p.queue[i] = timedFrame{}
		}
		p.queue, p.head = nil, 0
	}
	p.mu.Unlock()
	p.w.Wake()
}

type memConn struct {
	send *memPipe
	recv *memPipe
}

var _ Conn = (*memConn)(nil)

func (c *memConn) Send(fb *wire.FrameBuf) error { return c.send.send(fb) }

func (c *memConn) SendBatch(fbs []*wire.FrameBuf) error { return c.send.sendBatch(fbs) }

func (c *memConn) Recv() (*wire.FrameBuf, error) { return c.recv.recv() }

func (c *memConn) Close() error {
	c.send.close()
	c.recv.close()
	return nil
}

// --- TCP network -------------------------------------------------------------

// TCP is a Network over real sockets. The zero value uses no I/O
// deadlines (a dead peer hangs Recv until the kernel gives up);
// non-zero timeouts bound each frame read/write and surface expiry as
// ErrTimeout, which the RPC layer classifies as retryable. ReadTimeout
// is a maximum silence, not a liveness probe: set it well above the
// connection's expected idle time, or pair it with eviction-and-redial
// in the caller (as internal/client does), because an idle healthy
// connection will be torn down when it expires.
type TCP struct {
	// ReadTimeout bounds how long Recv waits for the next frame.
	// Zero means no deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds one frame write. Zero means no deadline.
	WriteTimeout time.Duration
}

var _ Network = TCP{}

// Dial implements Network.
func (t TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q: %w", addr, err)
	}
	return &tcpConn{c: nc, readTimeout: t.ReadTimeout, writeTimeout: t.WriteTimeout}, nil
}

// Listen implements Network.
func (t TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	return &tcpListener{l: nl, readTimeout: t.ReadTimeout, writeTimeout: t.WriteTimeout}, nil
}

type tcpListener struct {
	l            net.Listener
	readTimeout  time.Duration
	writeTimeout time.Duration
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: nc, readTimeout: l.readTimeout, writeTimeout: l.writeTimeout}, nil
}

func (l *tcpListener) Close() error { return l.l.Close() }

func (l *tcpListener) Addr() string { return l.l.Addr().String() }

type tcpConn struct {
	c            net.Conn
	readTimeout  time.Duration
	writeTimeout time.Duration
	wm           sync.Mutex
	rm           sync.Mutex
	// vec is SendBatch's reusable iovec, the value its vectored write is
	// called on (see wire.WriteFrames), guarded by wm.
	vec net.Buffers
}

var _ Conn = (*tcpConn)(nil)

// wrapTimeout maps a net deadline expiry to the ErrTimeout sentinel so
// callers can classify it without string matching.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return err
}

func (c *tcpConn) Send(fb *wire.FrameBuf) error {
	c.wm.Lock()
	if c.writeTimeout > 0 {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	err := wire.WriteFrame(c.c, fb) // one writev: header + body, no coalescing
	c.wm.Unlock()
	fb.Release()
	if err != nil {
		return fmt.Errorf("transport: send: %w", wrapTimeout(err))
	}
	return nil
}

func (c *tcpConn) SendBatch(fbs []*wire.FrameBuf) error {
	if len(fbs) == 0 {
		return nil
	}
	c.wm.Lock()
	if c.writeTimeout > 0 {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	err := wire.WriteFrames(c.c, fbs, &c.vec) // one writev for the whole batch
	c.wm.Unlock()
	wire.ReleaseAll(fbs)
	if err != nil {
		return fmt.Errorf("transport: send: %w", wrapTimeout(err))
	}
	return nil
}

func (c *tcpConn) Recv() (*wire.FrameBuf, error) {
	c.rm.Lock()
	defer c.rm.Unlock()
	if c.readTimeout > 0 {
		_ = c.c.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
	fb := wire.GetFrameBuf()
	if err := wire.ReadFrame(c.c, fb); err != nil {
		fb.Release()
		return nil, wrapTimeout(err)
	}
	return fb, nil
}

func (c *tcpConn) Close() error { return c.c.Close() }
