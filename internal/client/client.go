// Package client implements the transaction coordinator of the
// distributed MVTL algorithm (§7/§H, Algorithms 11-12). A Client owns
// connections to the storage servers and partitions keys among them.
// Its transactions are core.Txn — the repository's one transaction
// engine — over the remote backend of remote.go, which carries out the
// engine's steps by messages to the servers. The backend is one value
// per Client, held by the Client's engine, as core.DB is one per store:
// a transaction allocates only its Txn, and the coordinator's working
// state for it (routes, grants, request buffers) rides the Txn's pooled
// core.Scratch beside the policy's. The transactions are governed by the policy the Client's
// Mode names, built by policy's one table: the very policies that govern
// the in-process store. All modes run against the same storage
// servers and wire protocol, so the comparison isolates the concurrency
// control discipline, exactly as in the paper's evaluation framework
// (§8.1). Any policy that reaches keys only through the engine's lock
// steps can run here; it joins by setting its row's remote flag in
// policy's table, together with its scenarios in the fault matrix.
package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// Mode selects the coordinator's policy. It is policy.Kind, and only a
// kind the remote backend runs (Kind.Remote) is a valid Mode: these four.
type Mode = policy.Kind

// Coordinator modes: MVTIL (§8) committing early — the default — or
// late, MVTL-TO as the MVTO+ comparison point (Theorem 5),
// MVTL-Pessimistic as distributed 2PL (Theorem 6).
const (
	ModeTILEarly    = policy.KindTILEarly
	ModeTILLate     = policy.KindTILLate
	ModeTO          = policy.KindTO
	ModePessimistic = policy.KindPessimistic
)

// Router resolves partitions to their serving heads in replicated
// clusters. Route is consulted at most once per partition per
// transaction — the transaction pins what it gets, so a failover never
// moves a transaction's freeze or decide target mid-flight: when a
// pinned route proves stale (the server is unreachable, or it fenced
// the request's epoch with wire.StatusWrongEpoch) the transaction
// aborts, and the retry pins fresh routes. Implementations must be safe
// for concurrent use.
type Router interface {
	Route(partition int) (addr string, epoch uint64)
}

// Config parameterizes a Client.
type Config struct {
	// ID distinguishes this client process; it is folded into
	// transaction ids and timestamp process ids, so it must be unique
	// across clients. Must be nonzero.
	ID int32
	// Servers are the storage server addresses; keys partition across
	// them by hash (§7).
	Servers []string
	// Network provides the transport.
	Network transport.Network
	// Router, when non-nil, overlays replication-aware routing on the
	// static partitioning: keys still partition by hash over Servers,
	// but partition p's traffic goes to the router's current head for p,
	// stamped with its epoch. Nil keeps the static Servers routing with
	// epoch 0 (unfenced).
	Router Router
	// Mode selects the policy.
	Mode Mode
	// Delta is the MVTIL interval width in clock ticks; zero takes the
	// paper's Δ = 5ms in microsecond ticks.
	Delta int64
	// Clock is the client's local clock; no synchronization is assumed
	// (§8). Defaults to the system clock.
	Clock clock.Source
	// Recorder, when non-nil, receives committed transaction footprints
	// for offline serializability checking (tests only).
	Recorder *history.Recorder
	// DeadlockPoll is the cross-server deadlock detector's poll period:
	// while one of this coordinator's lock requests may be parked
	// server-side, every server's wait-for edges are polled this often
	// and victims of confirmed global cycles are aborted (see detector).
	// Zero or a negative value selects the 10ms default.
	DeadlockPoll time.Duration
	// CallTimeout bounds each RPC — and each fan-out, whose requests
	// leave together: a partitioned or crashed server costs one timeout
	// instead of hanging the transaction. It must exceed the servers'
	// lock-wait timeout, or waiting lock requests are cut off
	// spuriously. Zero disables per-call deadlines (the caller's context
	// still applies).
	CallTimeout time.Duration
	// Timers supplies every timed wait the coordinator performs (call
	// timeouts, reply waits, detector polls). Nil means SystemTimers;
	// the fault bed passes a clock.Virtual so those waits resolve by
	// timeline jump.
	Timers clock.Timers
}

// Client coordinates transactions from one client process.
type Client struct {
	cfg    Config
	clk    *clock.Process
	engine *core.Engine
	timers clock.Timers
	det    detector

	nextSq atomic.Uint32 // numbers the transactions

	mu    sync.Mutex
	conns map[string]*rpc.Client
}

var _ kv.DB = (*Client)(nil)

// New returns a coordinator. Dial errors surface lazily on first use of
// each server.
func New(cfg Config) (*Client, error) {
	if cfg.ID == 0 {
		return nil, fmt.Errorf("client: Config.ID must be nonzero")
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("client: no servers configured")
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("client: Config.Network is required")
	}
	if !cfg.Mode.Remote() {
		return nil, fmt.Errorf("client: policy %v does not run over the wire", cfg.Mode)
	}
	src := cfg.Clock
	if src == nil {
		src = clock.System{}
	}
	clk := clock.NewProcess(src, cfg.ID)
	c := &Client{
		cfg:    cfg,
		clk:    clk,
		timers: clock.OrSystem(cfg.Timers),
		conns:  make(map[string]*rpc.Client),
	}
	c.engine = core.NewEngine(remote{c}, cfg.Mode.New(clk, policy.Params{Delta: cfg.Delta}), core.Options{Recorder: cfg.Recorder})
	c.det = detector{c: c, poll: cfg.DeadlockPoll, stop: make(chan struct{})}
	if c.det.poll <= 0 {
		c.det.poll = 10 * time.Millisecond
	}
	return c, nil
}

// Close stops the deadlock detector and tears down all server
// connections.
func (c *Client) Close() error {
	c.det.close()
	c.mu.Lock()
	conns := c.conns
	c.conns = map[string]*rpc.Client{}
	c.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
	return nil
}

// AdvanceClock pushes the client clock to at least t, as done when the
// timestamp service broadcasts its purge bound (§8.1) so that slow
// clients do not start transactions needing purged versions.
func (c *Client) AdvanceClock(t int64) { c.clk.AdvanceTo(t) }

// partitionFor maps a key to its partition index.
func (c *Client) partitionFor(key string) int {
	return strhash.Partition(key, len(c.cfg.Servers))
}

// routeFor resolves a partition to its current head and fencing epoch:
// through the Router when configured, else the static server list with
// epoch 0.
func (c *Client) routeFor(p int) (string, uint64) {
	if r := c.cfg.Router; r != nil {
		return r.Route(p)
	}
	return c.cfg.Servers[p], 0
}

// conn returns the cached RPC client for addr, creating it on first
// use; dial errors surface lazily from the calls themselves, and a
// connection a call found dead is redialed by the next call (package
// rpc). It holds one connection: this coordinator's frames to a server
// stay strictly FIFO, and with them read-your-own-writes freshness
// across its transactions after a fire-and-forget commit tail.
func (c *Client) conn(addr string) *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	rc, ok := c.conns[addr]
	if !ok {
		rc = rpc.NewClientTimers(c.cfg.Network, addr, 1, c.timers)
		c.conns[addr] = rc
	}
	return rc
}

// call performs one RPC against the server at addr, bounded by
// CallTimeout when configured. flow pins all frames of one transaction
// to one pooled connection (FIFO within the flow); callers outside any
// transaction pass 0. The caller owns the returned frame buffer and
// must Release it after decoding the response (copying out anything
// that escapes, see package wire).
func (c *Client) call(ctx context.Context, addr string, flow uint64, t wire.MsgType, m wire.Message) (*wire.FrameBuf, error) {
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	return c.conn(addr).Call(ctx, flow, t, m)
}

// callContext bounds ctx by CallTimeout when one is configured.
func (c *Client) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := c.cfg.CallTimeout; d > 0 {
		return c.timers.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// cast sends a one-way message to addr, which the server serves and
// does not answer (Alg. 11's freeze and release sends, an abort's
// proposal). Per-flow FIFO ordering guarantees that the transaction's
// subsequent frames to the same server observe the message's effects.
func (c *Client) cast(addr string, flow uint64, t wire.MsgType, m wire.Message) error {
	return c.conn(addr).Cast(flow, t, m)
}

// ServerStats queries one server's state-size statistics (Figure 6).
func (c *Client) ServerStats(ctx context.Context, addr string) (wire.StatsResp, error) {
	f, err := c.call(ctx, addr, 0, wire.TStatsReq, nil)
	if err != nil {
		return wire.StatsResp{}, err
	}
	defer f.Release()
	return wire.DecodeStatsResp(f.Body())
}

// PurgeServers asks every server to purge state below bound, returning
// totals; the timestamp service calls this periodically (§8.1).
func (c *Client) PurgeServers(ctx context.Context, bound timestamp.Timestamp) (versions, locks int64, err error) {
	for _, addr := range c.cfg.Servers {
		f, callErr := c.call(ctx, addr, 0, wire.TPurgeReq, wire.PurgeReq{Bound: bound})
		if callErr != nil {
			return versions, locks, callErr
		}
		resp, decErr := wire.DecodePurgeResp(f.Body())
		f.Release()
		if decErr != nil {
			return versions, locks, decErr
		}
		if resp.Status != wire.StatusOK {
			return versions, locks, fmt.Errorf("client: purge via %s: %s", addr, resp.Err)
		}
		versions += resp.Versions
		locks += resp.Locks
	}
	return versions, locks, nil
}
