// Package faultbed is the deterministic fault-injection layer of the
// repository: a chaos network wrapping transport.Mem, crash-restart
// orchestration over package cluster, and a scenario runner that drives
// seeded workloads through fault schedules and checks every surviving
// commit for serializability (package history).
//
// # Determinism discipline
//
// Everything random is derived from one scenario seed with partitioned
// streams, following the H13 invariant: same seed, same run.
//
//   - The underlying Mem network derives each connection's jitter
//     stream from (seed, address, dial index) — dialing one link never
//     perturbs another (see transport.NewMemSeededTimers).
//   - Chaos decisions (drop, duplicate, delay, reset) are
//     stateless hashes of (seed, link, dial index, direction, frame
//     index, fault kind): no generator state, so the decision for frame
//     k of a link is a pure function of the scenario seed and the
//     frame's position — immune to goroutine interleaving and to
//     draw-order perturbation from other links.
//   - Partitions are scripted (scenario events), not sampled; their
//     drops are deliberately not per-frame-logged, because background
//     traffic (suspicion scanners) is wall-clock-paced and would make
//     log counts run-dependent. The event log records the windows.
//
// The fault log therefore reproduces byte-identically across same-seed
// runs whenever the frame sequence itself is deterministic — which the
// runner arranges by driving transactions sequentially from one
// scripted generator (see runner.go).
//
// # Topology
//
// One Net is shared by the whole cluster. Every process gets a named
// view of it (Endpoint), so each frame is attributable to a directed
// link "from->to". Chaos is restricted to the links of the endpoints
// named in Chaos.Endpoints (the scenario's workload client); partitions
// apply to every link they name, with "*" as a wildcard.
package faultbed

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// Chaos configures per-frame stochastic faults on the links of the
// named endpoints. Probabilities are per frame, in [0,1]; zero values
// disable the fault.
type Chaos struct {
	// Drop loses the frame silently (send and receive direction).
	Drop float64
	// Dup sends the frame twice (send direction). The duplicate is a
	// copy: the receiver sees the same correlation id and body again.
	Dup float64
	// Delay stalls the link before forwarding the frame (send
	// direction), holding the sender's FIFO — a latency spike, not a
	// reorder. The spike length is derived from the same hash stream,
	// uniform in [DelayMin, DelayMax].
	Delay float64
	// Reset tears the connection down (send direction): the sender
	// sees a closed-connection error, the peer's reads fail, and the
	// next use redials.
	Reset float64

	// DelayMin/DelayMax bound a delay spike. Defaults 1ms/5ms.
	DelayMin, DelayMax time.Duration

	// Endpoints names the endpoints whose links are subject to the
	// stochastic faults above (either direction of connections they
	// dialed). Empty means every endpoint.
	Endpoints []string
}

// enabled reports whether any stochastic fault is configured.
func (c Chaos) enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Delay > 0 || c.Reset > 0
}

// appliesTo reports whether endpoint name is subject to chaos.
func (c Chaos) appliesTo(name string) bool {
	if !c.enabled() {
		return false
	}
	if len(c.Endpoints) == 0 {
		return true
	}
	for _, e := range c.Endpoints {
		if e == name || e == "*" {
			return true
		}
	}
	return false
}

// Config parameterizes a Net.
type Config struct {
	// Model is the latency model of the underlying Mem network.
	Model transport.LatencyModel
	// Seed drives every random stream (link jitter and chaos).
	Seed int64
	// Chaos configures the stochastic per-frame faults.
	Chaos Chaos
	// Timers supplies the timeline for modeled delays (chaos delay
	// spikes) and the inner Mem network's pacing. Nil means
	// SystemTimers; virtual runs pass a clock.Virtual so fault windows
	// cost no wall clock.
	Timers clock.Timers
}

// edge is one directed link rule endpoint pair ("*" wildcards allowed).
type edge struct{ from, to string }

// Net is the chaos network: a seeded in-memory transport whose
// per-endpoint views inject partitions and per-frame faults. Create
// with New; use Endpoint to hand each process its view. Net itself
// implements transport.Network as the anonymous endpoint "env"
// (pass-through, never subject to chaos).
type Net struct {
	inner  *transport.Mem
	seed   uint64
	chaos  Chaos
	timers clock.Timers

	mu    sync.Mutex
	cut   map[edge]bool
	dials map[string]uint64
	// log collects chaos fault records per (link, direction); each
	// stream is appended serially (Send and Recv are each
	// single-caller per connection), so its order is deterministic.
	log map[string][]string
}

// New returns a chaos network for cfg.
func New(cfg Config) *Net {
	ch := cfg.Chaos
	if ch.DelayMin <= 0 {
		ch.DelayMin = time.Millisecond
	}
	if ch.DelayMax < ch.DelayMin {
		ch.DelayMax = 5 * time.Millisecond
		if ch.DelayMax < ch.DelayMin {
			ch.DelayMax = ch.DelayMin
		}
	}
	return &Net{
		inner:  transport.NewMemSeededTimers(cfg.Model, cfg.Seed, cfg.Timers),
		seed:   uint64(cfg.Seed),
		chaos:  ch,
		timers: clock.OrSystem(cfg.Timers),
		cut:    make(map[edge]bool),
		dials:  make(map[string]uint64),
		log:    make(map[string][]string),
	}
}

// Endpoint returns the network view of the named process. Dials through
// the view run over links "name->addr"; Listen is pass-through (faults
// ride on the dialer-side connection wrapper, both directions).
func (n *Net) Endpoint(name string) transport.Network { return view{n: n, name: name} }

var _ transport.Network = (*Net)(nil)

// Dial implements transport.Network via the anonymous endpoint.
func (n *Net) Dial(addr string) (transport.Conn, error) { return n.Endpoint("env").Dial(addr) }

// Listen implements transport.Network.
func (n *Net) Listen(addr string) (transport.Listener, error) { return n.inner.Listen(addr) }

// Partition cuts both directions between a and b ("*" matches any
// endpoint): frames between them vanish silently and new dials fail
// with transport.ErrUnavailable.
func (n *Net) Partition(a, b string) {
	n.mu.Lock()
	n.cut[edge{a, b}] = true
	n.cut[edge{b, a}] = true
	n.mu.Unlock()
}

// PartitionAsym cuts only the from->to direction: frames and dials from
// `from` toward `to` are lost while the reverse direction still works.
func (n *Net) PartitionAsym(from, to string) {
	n.mu.Lock()
	n.cut[edge{from, to}] = true
	n.mu.Unlock()
}

// Heal removes the partition rules between a and b (both directions).
func (n *Net) Heal(a, b string) {
	n.mu.Lock()
	delete(n.cut, edge{a, b})
	delete(n.cut, edge{b, a})
	n.mu.Unlock()
}

// HealAll removes every partition rule.
func (n *Net) HealAll() {
	n.mu.Lock()
	n.cut = make(map[edge]bool)
	n.mu.Unlock()
}

// isCut reports whether the from->to direction is partitioned.
func (n *Net) isCut(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.cut) == 0 {
		return false
	}
	return n.cut[edge{from, to}] || n.cut[edge{from, "*"}] || n.cut[edge{"*", to}]
}

// nextDial counts dials per link, so every connection of a link gets
// its own deterministic chaos stream.
func (n *Net) nextDial(link string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.dials[link]
	n.dials[link] = d + 1
	return d
}

// record appends one chaos fault to the (link, direction) stream.
func (n *Net) record(stream, entry string) {
	n.mu.Lock()
	n.log[stream] = append(n.log[stream], entry)
	n.mu.Unlock()
}

// FaultLog renders every chaos fault injected so far, grouped by link
// stream in sorted order — the byte-comparable fault schedule of the
// determinism invariant.
func (n *Net) FaultLog() string {
	n.mu.Lock()
	streams := make([]string, 0, len(n.log))
	for s := range n.log {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	var b strings.Builder
	for _, s := range streams {
		fmt.Fprintf(&b, "%s:\n", s)
		for _, e := range n.log[s] {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	n.mu.Unlock()
	return b.String()
}

// view is one endpoint's Network.
type view struct {
	n    *Net
	name string
}

var _ transport.Network = view{}

// Listen implements transport.Network.
func (v view) Listen(addr string) (transport.Listener, error) { return v.n.inner.Listen(addr) }

// Dial implements transport.Network: partitioned dials fail with
// transport.ErrUnavailable (retryable — the partition may heal), and
// established connections are wrapped with the link's chaos stream.
func (v view) Dial(addr string) (transport.Conn, error) {
	if v.n.isCut(v.name, addr) {
		return nil, fmt.Errorf("faultbed: dial %s->%s: partitioned: %w", v.name, addr, transport.ErrUnavailable)
	}
	inner, err := v.n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	link := v.name + "->" + addr
	c := &chaosConn{
		net:   v.n,
		in:    inner,
		from:  v.name,
		to:    addr,
		link:  link,
		chaos: v.n.chaos.appliesTo(v.name),
	}
	c.base = strhash.Mix64(v.n.seed ^ strhash.FNV1a64(link) ^ (v.n.nextDial(link) << 17))
	return c, nil
}

// Fault-kind constants folded into the decision hash: each (frame,
// kind) pair gets an independent coin.
const (
	kindReset uint64 = iota + 1
	kindDrop
	kindDup
	kindDelay
	kindDelayLen
)

// chaosConn wraps the dialer side of one connection. Send carries the
// from->to direction, Recv the reverse. Like every transport.Conn,
// Send and Recv are each safe for one concurrent caller — which is
// what keeps sendIdx/recvIdx race-free and their fault streams ordered.
type chaosConn struct {
	net      *Net
	in       transport.Conn
	from, to string
	link     string
	base     uint64
	chaos    bool

	sendIdx uint64
	recvIdx uint64
}

var _ transport.Conn = (*chaosConn)(nil)

// roll returns the deterministic uniform [0,1) coin for (direction,
// frame index, fault kind) on this connection.
func (c *chaosConn) roll(dir, idx, kind uint64) float64 {
	h := strhash.Mix64(c.base ^ (dir << 62) ^ (idx << 8) ^ kind)
	return float64(h>>11) / float64(1<<53)
}

// chaosSend runs the next outbound frame through the per-frame ladder —
// partition cut, then reset, drop, duplicate, delay spike, in that
// order, each decided by the frame's own coin — and returns what is
// left to forward: fb and, when it was duplicated, its copy. A lost
// frame is released and comes back nil; a reset closes the inner
// connection and comes back as the error. Send and SendBatch both go
// through here, one send index and one set of coins per frame, so a
// link's fault schedule depends only on its frame sequence, never on
// how the sender grouped frames into flushes (H13). ahead forwards
// whatever the caller has collected but not yet sent; it runs before a
// reset closes the connection and before a delay spike sleeps, because
// on the unbatched path those frames were already on the wire when the
// fault hit.
func (c *chaosConn) chaosSend(fb *wire.FrameBuf, ahead func()) (fwd, dup *wire.FrameBuf, err error) {
	idx := c.sendIdx
	c.sendIdx++
	if c.net.isCut(c.from, c.to) {
		// The frame vanishes in the partition: the sender sees success,
		// exactly like a one-way loss on a real network. Not per-frame
		// logged (see the package comment).
		fb.Release()
		return nil, nil, nil
	}
	if !c.chaos {
		return fb, nil, nil
	}
	ch := c.net.chaos
	stream := c.link + " send"
	if ch.Reset > 0 && c.roll(0, idx, kindReset) < ch.Reset {
		c.net.record(stream, fmt.Sprintf("%04d reset", idx))
		fb.Release()
		ahead()
		_ = c.in.Close()
		return nil, nil, fmt.Errorf("faultbed: %s: connection reset: %w", c.link, transport.ErrClosed)
	}
	if ch.Drop > 0 && c.roll(0, idx, kindDrop) < ch.Drop {
		c.net.record(stream, fmt.Sprintf("%04d drop", idx))
		fb.Release()
		return nil, nil, nil
	}
	if ch.Dup > 0 && c.roll(0, idx, kindDup) < ch.Dup {
		d := wire.GetFrameBuf()
		if err := d.SetFrame(fb.ID(), fb.Type(), wire.Raw(fb.Body())); err != nil {
			d.Release()
		} else {
			c.net.record(stream, fmt.Sprintf("%04d dup", idx))
			dup = d
		}
	}
	if ch.Delay > 0 && c.roll(0, idx, kindDelay) < ch.Delay {
		span := ch.DelayMax - ch.DelayMin
		d := ch.DelayMin
		if span > 0 {
			d += time.Duration(c.roll(0, idx, kindDelayLen) * float64(span))
		}
		c.net.record(stream, fmt.Sprintf("%04d delay %v", idx, d.Round(time.Microsecond)))
		ahead()
		c.net.timers.Sleep(d)
	}
	return fb, dup, nil
}

// Send implements transport.Conn.
func (c *chaosConn) Send(fb *wire.FrameBuf) error {
	fb, dup, err := c.chaosSend(fb, func() {})
	if fb == nil {
		return err
	}
	err = c.in.Send(fb)
	if dup != nil {
		_ = c.in.Send(dup)
	}
	return err
}

// SendBatch implements transport.Conn: every frame takes the ladder on
// its own, exactly as len(fbs) unbatched Sends would, and the survivors
// are re-grouped and forwarded as a batch. Frames behind a reset keep
// rolling their coins (on the unbatched path each would reach this
// wrapper and roll before its doomed inner Send), so the recorded fault
// schedule is byte-identical however the frames were grouped; their
// forwarding then fails on the closed inner connection, which consumes
// them.
func (c *chaosConn) SendBatch(fbs []*wire.FrameBuf) error {
	var firstErr error
	fwd := make([]*wire.FrameBuf, 0, len(fbs))
	flush := func() {
		if len(fwd) == 0 {
			return
		}
		if err := c.in.SendBatch(fwd); err != nil && firstErr == nil {
			firstErr = err
		}
		fwd = fwd[:0]
	}
	for i, fb := range fbs {
		fbs[i] = nil
		fb, dup, err := c.chaosSend(fb, flush)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if fb == nil {
			continue
		}
		fwd = append(fwd, fb)
		if dup != nil {
			fwd = append(fwd, dup)
		}
	}
	flush()
	return firstErr
}

// Recv implements transport.Conn: frames arriving through a partition
// of the reverse direction are swallowed, and chaos can drop them.
func (c *chaosConn) Recv() (*wire.FrameBuf, error) {
	for {
		fb, err := c.in.Recv()
		if err != nil {
			return nil, err
		}
		idx := c.recvIdx
		c.recvIdx++
		if c.net.isCut(c.to, c.from) {
			fb.Release()
			continue
		}
		if c.chaos {
			ch := c.net.chaos
			if ch.Drop > 0 && c.roll(1, idx, kindDrop) < ch.Drop {
				c.net.record(c.link+" recv", fmt.Sprintf("%04d drop", idx))
				fb.Release()
				continue
			}
		}
		return fb, nil
	}
}

// Close implements transport.Conn.
func (c *chaosConn) Close() error { return c.in.Close() }
