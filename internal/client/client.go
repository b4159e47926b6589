// Package client implements the transaction coordinator of the
// distributed MVTL algorithm (§7/§H, Algorithms 11-12). A Client owns
// connections to the storage servers and partitions keys among them.
// Its transactions are core.Txn — the repository's one transaction
// engine — over the remote backend of remote.go, which carries out the
// engine's steps by messages to the servers, governed by the policy its
// Mode names (Mode.policy): the very policies of internal/policy that
// govern the in-process store. All modes run against the same storage
// servers and wire protocol, so the comparison isolates the concurrency
// control discipline, exactly as in the paper's evaluation framework
// (§8.1). Any policy that reaches keys only through the engine's lock
// steps can join the table; a Mode is added together with its scenarios
// in the fault matrix.
package client

import (
	"context"
	"errors"
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

// Mode selects the coordinator's concurrency control strategy.
type Mode uint8

// Coordinator modes.
const (
	ModeTILEarly Mode = iota + 1
	ModeTILLate
	ModeTO
	ModePessimistic
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeTILEarly:
		return "mvtil-early"
	case ModeTILLate:
		return "mvtil-late"
	case ModeTO:
		return "mvto+"
	case ModePessimistic:
		return "2pl"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// policy returns the policy that governs the mode's transactions, as
// mvtl.Algorithm chooses for the in-process store: MVTIL (§8) committing
// early — the default — or late, MVTL-TO as the MVTO+ comparison point
// (Theorem 5), MVTL-Pessimistic as distributed 2PL (Theorem 6).
func (m Mode) policy(clk *clock.Process, delta int64) (core.Policy, error) {
	switch m {
	case 0, ModeTILEarly:
		return policy.NewTIL(clk, delta, policy.CommitEarly, true), nil
	case ModeTILLate:
		return policy.NewTIL(clk, delta, policy.CommitLate, true), nil
	case ModeTO:
		return policy.NewTO(clk), nil
	case ModePessimistic:
		return policy.NewPessimistic(), nil
	default:
		return nil, fmt.Errorf("client: unknown %v", m)
	}
}

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
	// Delta is the MVTIL interval width in clock ticks (the paper uses
	// Δ = 5ms with microsecond ticks).
	Delta int64
	// Clock is the client's local clock; no synchronization is assumed
	// (§8). Defaults to the system clock.
	Clock clock.Source
	// Recorder, when non-nil, receives committed transaction footprints
	// for offline serializability checking (tests only).
	Recorder *history.Recorder
	// DeadlockPoll is the cross-server deadlock detector's poll
	// interval: while one of this coordinator's lock requests is
	// blocked, every server's wait-for edges are polled this often and
	// victims of confirmed global cycles are aborted (see package
	// deadlock). Zero selects the 10ms default; a negative value
	// disables the detector, leaving cross-server cycles to the
	// server-side lock-wait timeout.
	DeadlockPoll time.Duration
	// CallTimeout bounds each RPC: a partitioned or crashed server
	// costs one timeout instead of hanging the transaction. It must
	// exceed the servers' lock-wait timeout, or waiting lock requests
	// are cut off spuriously. Zero disables per-call deadlines (the
	// caller's context still applies).
	CallTimeout time.Duration
	// Timers supplies every timed wait the coordinator performs (call
	// timeouts, detector polls, fan-out joins). Nil means SystemTimers;
	// the fault bed passes a clock.Virtual so those waits resolve by
	// timeline jump.
	Timers clock.Timers
}

// RetryPolicy bounds retries of retryable failures (rpc.IsRetryable)
// with exponential backoff. The backoff is deterministic — no jitter —
// so a seeded fault scenario replays the same schedule run after run.
type RetryPolicy struct {
	// Base is the pause after the first failure; zero retries
	// immediately.
	Base time.Duration
	// Max caps the doubling; zero leaves it uncapped.
	Max time.Duration
	// Attempts is the total number of tries including the first;
	// values below one mean one (no retries).
	Attempts int
}

// Backoff returns the pause before retry number attempt (1-based: the
// pause after the attempt-th failure), doubling from Base, capped at
// Max.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	if p.Base <= 0 || attempt < 1 {
		return 0
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			return p.Max
		}
	}
	if p.Max > 0 && d > p.Max {
		return p.Max
	}
	return d
}

// Client coordinates transactions from one client process.
type Client struct {
	cfg    Config
	clk    *clock.Process
	engine *core.Engine
	timers clock.Timers
	// det is the cross-server deadlock detector; nil when disabled.
	det *detector

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
	if cfg.Delta == 0 {
		cfg.Delta = 5000 // 5ms in microsecond ticks
	}
	src := cfg.Clock
	if src == nil {
		src = clock.System{}
	}
	clk := clock.NewProcess(src, cfg.ID)
	pol, err := cfg.Mode.policy(clk, cfg.Delta)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:    cfg,
		clk:    clk,
		engine: core.NewEngine(pol, core.Options{Recorder: cfg.Recorder}),
		timers: clock.OrSystem(cfg.Timers),
		conns:  make(map[string]*rpc.Client),
	}
	if cfg.DeadlockPoll >= 0 {
		poll := cfg.DeadlockPoll
		if poll == 0 {
			poll = 10 * time.Millisecond
		}
		c.det = newDetector(c, poll)
	}
	return c, nil
}

// Close stops the deadlock detector and tears down all server
// connections.
func (c *Client) Close() error {
	if c.det != nil {
		c.det.close()
	}
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
// use; dial errors surface lazily from the calls themselves. It holds
// one connection: this coordinator's frames to a server stay strictly
// FIFO, and with them read-your-own-writes freshness across its
// transactions after a fire-and-forget commit tail.
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

// evict drops the pooled RPC client for addr — if it is still the
// cached one (identity-checked, so a concurrent redial is never torn
// down) and err says the connection itself died rather than the one
// request — so the next use redials. Package rpc is crash-stop: a
// broken Client never redials on its own, which is correct for the
// paper's failure model but would leave a crash-RESTARTED server
// permanently unreachable without this.
func (c *Client) evict(addr string, rc *rpc.Client, err error) {
	if !errors.Is(err, rpc.ErrClosed) && !errors.Is(err, transport.ErrClosed) && !errors.Is(err, transport.ErrTimeout) {
		return
	}
	c.mu.Lock()
	if c.conns[addr] == rc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
	_ = rc.Close()
}

// call performs one RPC against the server at addr, bounded by
// CallTimeout when configured. flow pins all frames of one transaction
// to one pooled connection (FIFO within the flow); callers outside any
// transaction pass 0. The caller owns the returned frame buffer and
// must Release it after decoding the response (copying out anything
// that escapes, see package wire).
func (c *Client) call(ctx context.Context, addr string, flow uint64, t wire.MsgType, m wire.Message) (*wire.FrameBuf, error) {
	rc := c.conn(addr)
	if d := c.cfg.CallTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = c.timers.WithTimeout(ctx, d)
		defer cancel()
	}
	f, err := rc.Call(ctx, flow, t, m)
	if err != nil {
		c.evict(addr, rc, err)
	}
	return f, err
}

// callWaitable is call for lock requests that may park server-side:
// when wait is set, the RPC is bracketed by the deadlock detector's
// blocked-call tracking, which is what switches its polling on.
func (c *Client) callWaitable(ctx context.Context, addr string, flow uint64, t wire.MsgType, m wire.Message, wait bool) (*wire.FrameBuf, error) {
	if wait && c.det != nil {
		c.det.enter()
		defer c.det.exit()
	}
	return c.call(ctx, addr, flow, t, m)
}

// cast sends a one-way message to addr, which the server serves and
// does not answer (Alg. 11's freeze and release sends, an abort's
// proposal). Per-flow FIFO ordering guarantees that the transaction's
// subsequent frames to the same server observe the message's effects.
func (c *Client) cast(addr string, flow uint64, t wire.MsgType, m wire.Message) error {
	rc := c.conn(addr)
	err := rc.Cast(flow, t, m)
	if err != nil {
		c.evict(addr, rc, err)
	}
	return err
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
