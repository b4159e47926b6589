// Package rpc is the multiplexed request/response layer between
// coordinators and storage servers: many goroutines issue RPCs against
// one server and share a small pool of pipelined transport connections
// instead of waiting for each other's replies.
//
// # Correlation ids
//
// Every call occupies a waiter slot in a per-connection freelist, and
// the frame's correlation id encodes the slot's position:
//
//	bit  63     cast flag (fire-and-forget: no waiter, and no response)
//	bits 32-62  slot index
//	bits 0-31   slot generation
//
// A slot holds a persistent buffered response channel and a generation
// counter that is bumped every time the slot is recycled. The response
// to a request is the frame carrying the same id back; responses may
// arrive in any order (server handlers block on locks independently),
// and the per-connection demux goroutine routes each response by
// indexing the slot table and comparing generations — no map lookup, no
// per-call channel allocation. A response whose generation no longer
// matches — the reply to a call whose context was cancelled, or a chaos
// duplicate — is released back to the buffer pool immediately. A cast
// is owed nothing: the server half sends no frame for a request whose id
// carries the cast flag, so every response on the wire is one a caller
// is parked on. A call can therefore never observe
// another call's response: a slot is recycled only after its tenant is
// done, and recycling changes the generation every response must match.
//
// # Started calls
//
// Call is Start followed by Pending.Wait. A caller that starts several
// calls — one per server of a batch — before it waits on any has them
// all in flight from one goroutine, and pays nothing for it: a Pending
// is a value that holds its waiter slot, and Wait frees the slot as
// Call does, whether the reply came or ctx ran out first.
//
// # Frame coalescing
//
// Senders do not write to the transport directly: each connection owns
// a batcher that appends encoded frames to a pending list, and whichever
// sender finds the connection idle drains the whole list through
// transport.Conn.SendBatch — one vectored write (one syscall on TCP) for
// every frame that accumulated while the previous flush was in flight.
// Coalescing is opportunistic: a lone frame flushes immediately, so idle
// connections pay no added latency, and concurrent callers amortize the
// per-frame transmission cost that would otherwise serialize them.
// Frames flush in enqueue order and flushes never overlap, so the
// transport's per-connection FIFO guarantee is preserved. The server
// half sends its replies through a batcher too, so a frame has one way
// out in either direction. Its read loop and its parked handlers are
// the concurrent senders there; a reply may therefore wait on the
// transport, and a peer that stops reading its replies holds the read
// loop back — TCP flow control pushes back on the peer — instead of
// growing a queue on the server.
//
// # Buffer ownership
//
// Requests are append-encoded (wire.Message) directly into a pooled
// wire.FrameBuf, which the transport consumes — the frame path
// allocates nothing in steady state. A successful Call returns the
// response's pooled buffer: the caller decodes in place and MUST
// Release it once done with the response and everything borrowed from
// its body (see package wire for the borrow rules). On the server half,
// ServeConn releases each request frame after its handler — and, for a
// request that left the read loop, the handler's parked remainder (see
// Handler) — returns, and Reply encodes the response message into a
// fresh pooled buffer that the transport consumes.
//
// # Pool semantics and ordering
//
// A Client owns up to `conns` connections to one address, dialed
// lazily. Every Call and Cast names a flow (callers use the transaction
// id): all frames of one flow travel over the same pooled connection,
// in send order, so the transport's per-connection FIFO guarantee
// becomes a per-flow FIFO guarantee — a transaction's tail casts can
// never overtake the decide they follow. Between different flows there is no
// ordering: with a pool larger than one, a frame of flow A may reach
// the server before an earlier frame of flow B. Callers that rely on
// cross-transaction FIFO to one server (the coordinator's
// read-your-own-writes freshness after a fire-and-forget freeze) must
// use a pool of one, which is the default and restores exactly the old
// single-connection ordering.
//
// # Shutdown and redial
//
// A call in flight when its connection closes — locally via Close or
// remotely by the peer — fails fast with ErrClosed wrapped with the
// server address; it never hangs and never receives another call's
// response. A sender whose frame was coalesced behind another caller's
// failing flush learns of the failure the same way: the flusher closes
// the transport, the demux fails every outstanding slot.
//
// A call that finds its connection dead — it failed with ErrClosed from
// the connection, or its own flush failed — retires the connection from
// its pool slot, and the slot's next call dials afresh. A timed-out call
// or a failed dial retires nothing. This is what keeps a server that
// crashed and restarted on the same address (a new incarnation, in the
// crash-stop model of §H) reachable through the same Client. Close is
// final: it tears every pooled connection down, and later calls fail
// immediately without dialing.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// ErrClosed reports an RPC on a torn-down connection. It is always
// returned wrapped with the server address; test with errors.Is.
var ErrClosed = errors.New("rpc: connection closed")

// Client is a pool of pipelined connections to one server. The zero
// value is not usable; call NewClient.
type Client struct {
	network transport.Network
	addr    string
	timers  clock.Timers

	mu     sync.Mutex
	conns  []*conn // one slot per pool index: nil until dialed, and again once dropped
	closed bool
}

// NewClient returns a client for addr over network with a pool of
// `conns` connections (values below one are treated as one). Dialing is
// lazy: errors surface on first use of each pool slot.
func NewClient(network transport.Network, addr string, conns int) *Client {
	return NewClientTimers(network, addr, conns, nil)
}

// NewClientTimers is NewClient on an explicit timeline: response waits
// park on the timeline's waiters and the demux goroutines register as
// actors, so the fault bed can run the whole RPC layer in virtual
// time. A nil t means SystemTimers.
func NewClientTimers(network transport.Network, addr string, conns int, t clock.Timers) *Client {
	if conns < 1 {
		conns = 1
	}
	return &Client{network: network, addr: addr, timers: clock.OrSystem(t), conns: make([]*conn, conns)}
}

// Addr returns the server address this client talks to.
func (c *Client) Addr() string { return c.addr }

// closedErr is the fail-fast error for a torn-down connection.
func closedErr(addr string) error {
	return fmt.Errorf("rpc: server %s: %w", addr, ErrClosed)
}

// slotFor maps a flow to a pool slot. Transaction ids carry the client
// id in the high half and the sequence number in the low half, so both
// are folded in.
func (c *Client) slotFor(flow uint64) int {
	return int((flow ^ flow>>32) % uint64(len(c.conns)))
}

// conn returns (dialing if needed) the pooled connection for flow.
func (c *Client) conn(flow uint64) (*conn, error) {
	slot := c.slotFor(flow)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, closedErr(c.addr)
	}
	cn := c.conns[slot]
	c.mu.Unlock()
	if cn != nil {
		return cn, nil
	}
	tc, err := c.network.Dial(c.addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = tc.Close()
		return nil, closedErr(c.addr)
	}
	if existing := c.conns[slot]; existing != nil {
		_ = tc.Close()
		return existing, nil
	}
	cn = newConn(c, slot, tc)
	c.conns[slot] = cn
	return cn, nil
}

// Call performs one request/response exchange on the flow's pooled
// connection: m is append-encoded into a pooled frame buffer (nil for
// an empty body) that the transport consumes. It returns the response
// frame's pooled buffer — which the caller must Release after decoding
// and copying out anything that escapes — or ctx.Err() on cancellation,
// or ErrClosed (wrapped with the address) if the connection goes down
// mid-call.
func (c *Client) Call(ctx context.Context, flow uint64, t wire.MsgType, m wire.Message) (*wire.FrameBuf, error) {
	p, err := c.Start(flow, t, m)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// Start is the first half of Call: it sends the request on the flow's
// pooled connection and returns the call, whose reply Wait collects. A
// caller that starts several calls before waiting on any has them all in
// flight at once, from one goroutine.
func (c *Client) Start(flow uint64, t wire.MsgType, m wire.Message) (Pending, error) {
	cn, err := c.conn(flow)
	if err != nil {
		return Pending{}, err
	}
	return cn.start(t, m)
}

// Pending is a started call: its request is sent and it holds a waiter
// slot for the reply. It is a plain value and costs no allocation. Wait
// must be called on it exactly once — that is what frees the slot.
type Pending struct {
	cn  *conn
	s   *waiterSlot
	idx uint32
}

// Wait is the second half of Call: it returns the reply's pooled frame
// (see Call), or ctx's error once ctx is done, or ErrClosed if the
// connection goes down first. A reply that has already arrived is
// returned even if ctx is done by now, so a caller waiting on several
// calls under one deadline loses none that made it in time.
func (p Pending) Wait(ctx context.Context) (*wire.FrameBuf, error) {
	cn, s := p.cn, p.s
	for {
		select {
		case f := <-s.ch:
			cn.freeSlot(p.idx, s)
			if f == nil {
				cn.drop()
				return nil, closedErr(cn.addr)
			}
			return f, nil
		default:
			// Nothing yet, or — after a park — a stale buffered wake from a
			// past tenancy: park (again).
		}
		if err := s.w.ParkCtx(ctx); err != nil {
			cn.unregister(p.idx, s)
			return nil, err
		}
	}
}

// Cast sends a request on the flow's pooled connection that nobody
// waits for and the server does not answer (its id carries the cast
// flag). Used for the fire-and-forget messages of Alg. 11 —
// freeze-write-locks, freeze-read-locks and releases are sent "without
// waiting for replies" (§H), which is what makes the protocol
// communication efficient.
func (c *Client) Cast(flow uint64, t wire.MsgType, m wire.Message) error {
	cn, err := c.conn(flow)
	if err != nil {
		return err
	}
	return cn.cast(t, m)
}

// Close tears every pooled connection down, failing calls in flight,
// and waits for the demux goroutines to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*conn, 0, len(c.conns))
	for _, cn := range c.conns {
		if cn != nil {
			conns = append(conns, cn)
		}
	}
	c.mu.Unlock()
	for _, cn := range conns {
		cn.close()
	}
	return nil
}

// castFlag marks a correlation id as having no waiter: the server half
// serves the request and sends nothing back (sendReply).
const castFlag = uint64(1) << 63

// callID packs a waiter slot's position into a correlation id.
func callID(idx uint32, gen uint32) uint64 { return uint64(idx)<<32 | uint64(gen) }

// waiterSlot is one reusable waiter: a persistent response channel plus
// the generation that distinguishes its current tenant from every past
// and future one.
type waiterSlot struct {
	// ch is buffered (capacity 1), never closed, and reused across
	// calls: the demux delivers at most one frame (or one nil closed
	// sentinel) per activation, so a send never blocks.
	ch chan *wire.FrameBuf
	// gen is bumped every time the slot is recycled; a late response
	// carrying an old generation can never be delivered to the slot's
	// next tenant. It wraps at 2^32, which would take 2^32 recycles of
	// the same slot with a response from the very first still in flight
	// to confuse — beyond any connection's plausible lifetime.
	gen uint32
	// active is set while a call owns the slot and no response has been
	// delivered; the demux claims a delivery by clearing it, so a
	// duplicated response (chaos Dup) cannot deliver twice.
	active bool
	// w parks the calling goroutine while the response is in flight;
	// the demux wakes it after delivering into ch. On a virtual
	// timeline the park marks the caller quiescent, which is what lets
	// modeled latencies and timeouts advance without wall clock.
	w clock.Waiter
}

// conn is one pipelined connection: a waiter-slot freelist, a demux
// goroutine routing response frames by slot index + generation, and a
// batcher coalescing concurrent senders' frames into vectored writes.
type conn struct {
	pool   *Client // owns the pool slot this connection fills
	slot   int
	addr   string
	tc     transport.Conn
	timers clock.Timers
	castID atomic.Uint64
	out    batcher

	mu     sync.Mutex
	slots  []*waiterSlot // grows on demand, never shrinks
	free   []uint32      // LIFO freelist of slot indices
	closed bool

	// lateDrops counts responses released by slot/generation mismatch:
	// late replies to cancelled calls and chaos duplicates.
	lateDrops atomic.Uint64

	// done joins the demux goroutine's exit. A credited clock.Join, not
	// a bare channel: close() may run on a registered virtual-timeline
	// actor while the demux is mid-Sleep on a modeled delivery delay,
	// and a raw channel receive would keep the closer counted runnable,
	// so the timer that would let the demux finish could never fire.
	done *clock.Join
}

func newConn(pool *Client, slot int, tc transport.Conn) *conn {
	cn := &conn{pool: pool, slot: slot, addr: pool.addr, tc: tc, timers: pool.timers}
	cn.out.tc = tc
	cn.done = clock.NewJoin(cn.timers, 1)
	cn.timers.Go(cn.recvLoop)
	return cn
}

// acquire claims a waiter slot (growing the table if the freelist is
// empty) and returns its index, the slot, and the correlation id of its
// new tenancy.
func (cn *conn) acquire() (uint32, *waiterSlot, uint64, error) {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return 0, nil, 0, closedErr(cn.addr)
	}
	if len(cn.free) == 0 {
		cn.free = append(cn.free, uint32(len(cn.slots)))
		cn.slots = append(cn.slots, &waiterSlot{ch: make(chan *wire.FrameBuf, 1), w: cn.timers.NewWaiter()})
	}
	idx := cn.free[len(cn.free)-1]
	cn.free = cn.free[:len(cn.free)-1]
	s := cn.slots[idx]
	s.active = true
	id := callID(idx, s.gen)
	cn.mu.Unlock()
	return idx, s, id, nil
}

// freeSlot recycles a slot whose tenant is done: the generation bump
// invalidates any response still in flight for the old tenancy.
func (cn *conn) freeSlot(idx uint32, s *waiterSlot) {
	cn.mu.Lock()
	s.active = false
	s.gen++
	cn.free = append(cn.free, idx)
	cn.mu.Unlock()
	// Discard any wake the demux signaled after this tenant stopped
	// listening, so it cannot leak into the slot's next tenancy.
	s.w.Drain()
}

// unregister abandons a slot mid-call (context cancelled, send failed).
// If the demux already claimed a delivery for this tenancy, the frame —
// or the nil closed sentinel — is drained from the persistent channel
// and released, fixing the old map-based demux's tolerated leak of late
// responses into abandoned channels.
func (cn *conn) unregister(idx uint32, s *waiterSlot) {
	cn.mu.Lock()
	if s.active {
		s.active = false
		s.gen++
		cn.free = append(cn.free, idx)
		cn.mu.Unlock()
		return
	}
	cn.mu.Unlock()
	// The demux (or the close sweep) claimed the slot before we could
	// invalidate it: exactly one value is in the channel or about to be
	// sent — a bounded wait, since claimed sends never block.
	if f := <-s.ch; f != nil {
		f.Release()
	}
	cn.freeSlot(idx, s)
}

// deliver hands a claimed response (or the nil closed sentinel) to the
// slot's tenant: the value first, then the wake, so a woken caller
// always finds the channel populated.
func deliver(s *waiterSlot, f *wire.FrameBuf) {
	s.ch <- f // capacity 1 and claimed exactly once: never blocks
	s.w.Wake()
}

// recvLoop routes response frames to their slots until the transport
// fails, then fails every active slot fast by delivering a nil closed
// sentinel on its persistent channel.
func (cn *conn) recvLoop() {
	defer cn.done.Done()
	for {
		f, err := cn.tc.Recv()
		if err != nil {
			cn.mu.Lock()
			cn.closed = true
			var fail []*waiterSlot
			for _, s := range cn.slots {
				if s.active {
					s.active = false
					fail = append(fail, s)
				}
			}
			cn.mu.Unlock()
			for _, s := range fail {
				deliver(s, nil) // claimed above: the channel is empty
			}
			return
		}
		cn.route(f)
	}
}

// route delivers one response frame by slot index + generation, or
// releases it back to the pool: late replies to cancelled calls
// (generation mismatch), duplicates (active already cleared), and
// garbage ids (out-of-range slots, which a stray cast-flagged id is
// one of) all recycle here.
func (cn *conn) route(f *wire.FrameBuf) {
	id := f.ID()
	idx, gen := uint32(id>>32), uint32(id)
	var s *waiterSlot
	cn.mu.Lock()
	if int(idx) < len(cn.slots) {
		if cand := cn.slots[idx]; cand.active && cand.gen == gen {
			cand.active = false // claim the delivery; a dup can't deliver twice
			s = cand
		}
	}
	cn.mu.Unlock()
	if s == nil {
		cn.lateDrops.Add(1)
		f.Release()
		return
	}
	deliver(s, f)
}

// send encodes m into a pooled frame buffer and enqueues it on the
// connection's batcher, which flushes it — coalesced with any frames
// concurrent senders enqueued — as one vectored write.
func (cn *conn) send(id uint64, t wire.MsgType, m wire.Message) error {
	out := wire.GetFrameBuf()
	if err := out.SetFrame(id, t, m); err != nil {
		out.Release()
		return err
	}
	return cn.out.send(out)
}

func (cn *conn) start(t wire.MsgType, m wire.Message) (Pending, error) {
	idx, s, id, err := cn.acquire()
	if err != nil {
		cn.drop()
		return Pending{}, err
	}
	if err := cn.send(id, t, m); err != nil {
		cn.unregister(idx, s)
		return Pending{}, cn.sendErr(err)
	}
	return Pending{cn: cn, s: s, idx: idx}, nil
}

func (cn *conn) cast(t wire.MsgType, m wire.Message) error {
	cn.mu.Lock()
	closed := cn.closed
	cn.mu.Unlock()
	if closed {
		cn.drop()
		return closedErr(cn.addr)
	}
	id := castFlag | cn.castID.Add(1)
	if err := cn.send(id, t, m); err != nil {
		return cn.sendErr(err)
	}
	return nil
}

// sendErr renders a failed send, retiring the connection when the
// failure was a flush's — the batcher has closed the transport then —
// rather than the frame's encoding.
func (cn *conn) sendErr(err error) error {
	if cn.out.broken() {
		cn.drop()
	}
	if errors.Is(err, transport.ErrClosed) {
		return closedErr(cn.addr)
	}
	return fmt.Errorf("rpc: send to %s: %w", cn.addr, err)
}

// drop retires a connection a call found dead: it empties the pool slot
// — if the slot still holds this connection (a concurrent call may have
// dropped it and dialed anew) and the client is not closed (Close owns
// the teardown then) — and closes the connection, joining its demux.
func (cn *conn) drop() {
	c := cn.pool
	c.mu.Lock()
	mine := !c.closed && c.conns[cn.slot] == cn
	if mine {
		c.conns[cn.slot] = nil
	}
	c.mu.Unlock()
	if mine {
		cn.close()
	}
}

func (cn *conn) close() {
	_ = cn.tc.Close()
	cn.done.Wait()
}

// batcher coalesces concurrent frame sends on one transport connection.
// Senders append to a pending list; whichever sender finds the
// connection idle becomes the flusher and drains the list through
// SendBatch — repeatedly, so frames that accumulate while a flush's
// vectored write is in the kernel go out together on the next one —
// while later senders just append and return. Frames flush in enqueue
// order and flushes never overlap, preserving the transport's
// per-connection FIFO. Two swapped backing arrays make the steady state
// allocation-free. Both halves of the mux send through one: a client
// connection's callers, and a served connection's read loop and parked
// handlers.
type batcher struct {
	tc transport.Conn

	mu       sync.Mutex
	pending  []*wire.FrameBuf
	spare    []*wire.FrameBuf // previous flush's array, reused for the next
	flushing bool
	err      error // first flush error; the connection is dead beyond it
}

// broken reports whether a flush has failed: the batcher has closed the
// transport, and the connection is dead.
func (b *batcher) broken() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err != nil
}

// send enqueues fb, taking ownership like transport.Conn.Send. An error
// is returned only if the connection is already known broken or this
// caller's own flush failed; a frame enqueued behind an active flusher
// reports success, and if its flush later fails the flusher closes the
// transport, so the demux fails the waiting call fast (casts are
// fire-and-forget anyway).
func (b *batcher) send(fb *wire.FrameBuf) error {
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		fb.Release()
		return err
	}
	b.pending = append(b.pending, fb)
	if b.flushing {
		b.mu.Unlock()
		return nil
	}
	b.flushing = true
	var err error
	for err == nil && len(b.pending) > 0 {
		batch := b.pending
		b.pending = b.spare[:0]
		b.mu.Unlock()
		if len(batch) == 1 {
			err = b.tc.Send(batch[0])
			batch[0] = nil
		} else {
			err = b.tc.SendBatch(batch) // consumes and nils every entry
		}
		b.mu.Lock()
		b.spare = batch[:0]
	}
	b.flushing = false
	if err == nil {
		b.mu.Unlock()
		return nil
	}
	b.err = err
	pend := b.pending
	b.pending = nil
	b.mu.Unlock()
	// Frames enqueued while the failing flush was in flight are
	// consumed here (their senders already returned nil); closing the
	// transport makes the receive loop fail every outstanding call.
	wire.ReleaseAll(pend)
	_ = b.tc.Close()
	return err
}

// Reply sends one response frame, correlated with the request that the
// enclosing handler is serving: m is append-encoded into a pooled
// buffer that the transport consumes — unless the request was a cast,
// which is served and not answered. It is safe for concurrent use while
// the handler runs, and must not be called after the handler has
// returned.
type Reply func(t wire.MsgType, m wire.Message)

// replyState backs the inline dispatch path's single Reply closure:
// inline handlers run sequentially on the read loop and may not retain
// reply beyond the handler's return, so one mutable correlation id per
// connection is safe — and the per-frame closure allocation of the old
// code is gone.
type replyState struct {
	out       *batcher
	onSendErr func(error)
	id        uint64
}

func (r *replyState) reply(t wire.MsgType, m wire.Message) {
	sendReply(r.out, r.onSendErr, r.id, t, m)
}

// sendReply encodes one response frame and enqueues it on the
// connection's batcher, which coalesces it with the replies of
// concurrent handlers. The reply to a cast is dropped here, unencoded:
// its sender waits for nothing.
func sendReply(out *batcher, onSendErr func(error), id uint64, t wire.MsgType, m wire.Message) {
	if id&castFlag != 0 {
		return
	}
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(id, t, m); err != nil {
		fb.Release()
		if onSendErr != nil {
			onSendErr(err)
		}
		return
	}
	if err := out.send(fb); err != nil && onSendErr != nil {
		onSendErr(err)
	}
}

// Handler serves one request frame on the connection's read loop. Most
// requests are answered right there: the handler calls reply and
// returns nil, and the next frame is not read until it has — which is
// what makes a connection's requests take effect in arrival order. A
// request whose service may park (a lock acquisition that waits on a
// conflict, a call to a peer) must not hold the loop up, so its handler
// returns the rest of its work instead; that function runs on its own
// goroutine with a Reply bound to the request's correlation id, and may
// finish in any order relative to later frames. Either way the frame,
// and every view decoded from it, stays valid until the last of the two
// functions has returned, and reply must not be called after that.
type Handler func(f *wire.FrameBuf, reply Reply) (parked func(reply Reply))

// ServeConn is the server half of the mux: it reads frames from conn
// and dispatches each to handle with a Reply bound to the frame's
// correlation id. Responses go out through the connection's batcher,
// as the client's requests do: replies that parked handlers send
// concurrently coalesce into vectored writes and never interleave
// bytes, and a reply may wait on the transport — a peer that stops
// reading holds the read loop back instead of queueing its replies.
// Frames whose type spawn reports true (handlers that may block) run in
// their own goroutine; all others run inline on the read loop, in
// arrival order — preserving the per-flow FIFO semantics coordinators rely on
// when they fire-and-forget a freeze and then issue the next request on
// the same flow — and share one pre-allocated Reply, so the inline
// request/reply path allocates nothing beyond the pooled frames. Each
// request frame is released back to the pool after its handler returns:
// handlers may decode in place, but anything that outlives the handler
// must be copied out, and reply must not be called after the handler
// has returned. ServeConn returns when Recv fails (connection closed),
// after every spawned handler finished. Failed response writes are
// reported to onSendErr (nil discards them) — a client waiting on a
// correlation id whose response was never written is otherwise
// invisible on the server side.
//
// ServeConn chooses by message type alone; a server that must look
// inside the request to know whether it can park (the storage server:
// a lock request parks only when its Wait flag is set) passes a Handler
// to ServeConnTimers instead.
func ServeConn(conn transport.Conn, spawn func(wire.MsgType) bool, handle func(f *wire.FrameBuf, reply Reply), onSendErr func(error)) {
	ServeConnTimers(conn, func(f *wire.FrameBuf, reply Reply) func(Reply) {
		if spawn != nil && spawn(f.Type()) {
			return func(reply Reply) { handle(f, reply) }
		}
		handle(f, reply)
		return nil
	}, onSendErr, nil)
}

// ServeConnTimers serves conn through handle (see Handler for the
// inline/parked contract) on an explicit timeline: parked handlers
// register as actors and the teardown wait is a credited clock.Join, so
// they can still be expired by virtual lock-wait deadlines while the
// connection drains without opening a free-running-advance window at
// the final handoff. A nil t means SystemTimers. The connection runs on
// the calling goroutine plus one per parked handler; a reply is flushed
// by whichever of them sends it while no flush is running, so the read
// loop may wait on the transport (see ServeConn).
func ServeConnTimers(conn transport.Conn, handle Handler, onSendErr func(error), t clock.Timers) {
	timers := clock.OrSystem(t)
	out := &batcher{tc: conn}
	inline := &replyState{out: out, onSendErr: onSendErr}
	inlineReply := Reply(inline.reply) // one closure for the whole connection
	handlers := clock.NewJoin(timers, 0)
	defer handlers.Wait()
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		inline.id = f.ID()
		parked := handle(f, inlineReply)
		if parked == nil {
			f.Release()
			continue
		}
		handlers.Add(1)
		id := f.ID()
		timers.Go(func() {
			defer handlers.Done()
			defer f.Release()
			parked(func(t wire.MsgType, m wire.Message) {
				sendReply(out, onSendErr, id, t, m)
			})
		})
	}
}
