package main

import (
	"strings"
	"sync"
	"sync/atomic"

	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// dirCounts counts one direction of the client↔server traffic.
type dirCounts struct {
	frames, bytes atomic.Int64
	// flushes counts Send and SendBatch calls: on TCP each is one write
	// system call.
	flushes atomic.Int64
}

// dirSnapshot is a dirCounts reading.
type dirSnapshot struct{ frames, bytes, flushes int64 }

func (d *dirCounts) snapshot() dirSnapshot {
	return dirSnapshot{d.frames.Load(), d.bytes.Load(), d.flushes.Load()}
}

func (a dirSnapshot) sub(b dirSnapshot) dirSnapshot {
	return dirSnapshot{a.frames - b.frames, a.bytes - b.bytes, a.flushes - b.flushes}
}

// countingNet wraps a transport.Network, passed as
// cluster.Config.Network on traced runs. The cluster asks it for one
// view per process (Endpoint), so a connection knows whether a
// coordinator or a server dialed it: frames a coordinator sends are
// counted client→server and traced as spans; frames sent on accepted
// connections are counted server→client.
type countingNet struct {
	inner transport.Network
	// listenAny makes every Listen bind a loopback ephemeral port: the
	// cluster names servers "server-N" unless its network is literally
	// transport.TCP, and a socket cannot bind that.
	listenAny bool
	tr        *tracer

	c2s, s2c dirCounts
	// byType counts client→server frames per message type.
	byType [256]atomic.Int64
}

func newCountingNet(inner transport.Network, listenAny bool, tr *tracer) *countingNet {
	return &countingNet{inner: inner, listenAny: listenAny, tr: tr}
}

// Endpoint returns the named process's view of the network.
func (n *countingNet) Endpoint(name string) transport.Network {
	return netView{n: n, coordinator: strings.HasPrefix(name, "client-")}
}

// Dial implements transport.Network for callers that skip Endpoint.
func (n *countingNet) Dial(addr string) (transport.Conn, error) {
	return netView{n: n}.Dial(addr)
}

// Listen implements transport.Network for callers that skip Endpoint.
func (n *countingNet) Listen(addr string) (transport.Listener, error) {
	return netView{n: n}.Listen(addr)
}

type netView struct {
	n           *countingNet
	coordinator bool
}

func (v netView) Dial(addr string) (transport.Conn, error) {
	c, err := v.n.inner.Dial(addr)
	if err != nil || !v.coordinator {
		return c, err // server-to-server links are idle on fault-free runs
	}
	return &clientConn{Conn: c, n: v.n, pending: make(map[uint64]sentFrame)}, nil
}

func (v netView) Listen(addr string) (transport.Listener, error) {
	if v.n.listenAny {
		addr = "127.0.0.1:0"
	}
	l, err := v.n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: l, n: v.n}, nil
}

type countingListener struct {
	transport.Listener
	n *countingNet
}

func (l countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, n: l.n}, nil
}

// serverConn is a server's end of a connection: its sends are the
// server→client direction.
type serverConn struct {
	transport.Conn
	n *countingNet
}

func (c *serverConn) Send(fb *wire.FrameBuf) error {
	c.n.s2c.frames.Add(1)
	c.n.s2c.bytes.Add(int64(fb.WireLen()))
	c.n.s2c.flushes.Add(1)
	return c.Conn.Send(fb)
}

func (c *serverConn) SendBatch(fbs []*wire.FrameBuf) error {
	var bytes int64
	for _, fb := range fbs {
		bytes += int64(fb.WireLen())
	}
	c.n.s2c.frames.Add(int64(len(fbs)))
	c.n.s2c.bytes.Add(bytes)
	c.n.s2c.flushes.Add(1)
	return c.Conn.SendBatch(fbs)
}

// sentFrame remembers a request until its reply comes back.
type sentFrame struct {
	txn    uint64
	parent uint32
	sent   int64
}

// clientConn is a coordinator's end of a connection. Send and Recv
// each have one caller at a time (transport.Conn's contract), but they
// run on different goroutines, so the pending table has its own lock.
type clientConn struct {
	transport.Conn
	n *countingNet

	// batch is SendBatch's scratch: the transport consumes the frames,
	// so what the spans need is read out first.
	batch []sentFrame
	ids   []uint64

	mu      sync.Mutex
	pending map[uint64]sentFrame
}

// castFlag is the correlation-id bit package rpc sets on
// fire-and-forget requests (its package comment documents the layout).
const castFlag = uint64(1) << 63

// txnOf reads the transaction id a request frame carries: every
// per-transaction request encodes it first. Frames outside any
// transaction (stats, purge, wait-graph polls) report false.
func txnOf(fb *wire.FrameBuf) (uint64, bool) {
	switch fb.Type() {
	case wire.TReadLockBatchReq, wire.TWriteLockReq, wire.TWriteLockBatchReq, wire.TDecideReq,
		wire.TFreezeBatchReq, wire.TReleaseBatchReq, wire.TReadLockReq:
		d := wire.NewDecoder(fb.Body())
		txn := d.U64()
		return txn, d.Err() == nil
	}
	return 0, false
}

func (c *clientConn) Send(fb *wire.FrameBuf) error {
	id, size, typ := fb.ID(), int64(fb.WireLen()), fb.Type()
	txn, inTxn := txnOf(fb)
	start := c.n.tr.now()
	if inTxn {
		c.park(id, txn, start)
	}
	err := c.Conn.Send(fb)
	end := c.n.tr.now()
	c.n.c2s.frames.Add(1)
	c.n.c2s.bytes.Add(size)
	c.n.c2s.flushes.Add(1)
	c.n.byType[typ].Add(1)
	atomic.AddInt64(&c.n.tr.sendNanos, end-start)
	if inTxn {
		c.sent(id, txn, start, end)
	}
	return err
}

func (c *clientConn) SendBatch(fbs []*wire.FrameBuf) error {
	c.batch, c.ids = c.batch[:0], c.ids[:0]
	var bytes int64
	for _, fb := range fbs {
		bytes += int64(fb.WireLen())
		c.n.byType[fb.Type()].Add(1)
		if txn, ok := txnOf(fb); ok {
			c.batch = append(c.batch, sentFrame{txn: txn})
			c.ids = append(c.ids, fb.ID())
		}
	}
	frames := int64(len(fbs))
	start := c.n.tr.now()
	for i, f := range c.batch {
		c.park(c.ids[i], f.txn, start)
	}
	err := c.Conn.SendBatch(fbs)
	end := c.n.tr.now()
	c.n.c2s.frames.Add(frames)
	c.n.c2s.bytes.Add(bytes)
	c.n.c2s.flushes.Add(1)
	atomic.AddInt64(&c.n.tr.sendNanos, end-start)
	for i, f := range c.batch {
		c.sent(c.ids[i], f.txn, start, end)
	}
	return err
}

// park remembers a request before it leaves: on loopback its reply
// can be back before Send returns.
func (c *clientConn) park(id, txn uint64, start int64) {
	c.mu.Lock()
	c.pending[id] = sentFrame{txn: txn, sent: start}
	c.mu.Unlock()
}

// sent records a request frame's send span and, unless the reply beat
// it, starts the wait for the reply at the send's end.
func (c *clientConn) sent(id, txn uint64, start, end int64) {
	parent := c.n.tr.frame(spanSend, txn, 0, start, end, id&castFlag == 0)
	c.mu.Lock()
	if _, waiting := c.pending[id]; waiting {
		c.pending[id] = sentFrame{txn: txn, parent: parent, sent: end}
	}
	c.mu.Unlock()
}

func (c *clientConn) Recv() (*wire.FrameBuf, error) {
	fb, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	now := c.n.tr.now()
	c.mu.Lock()
	f, ok := c.pending[fb.ID()]
	delete(c.pending, fb.ID())
	c.mu.Unlock()
	if ok {
		c.n.tr.frame(spanRecv, f.txn, f.parent, f.sent, now, false)
	}
	return fb, nil
}
