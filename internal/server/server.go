// Package server implements the MVTL storage server of the distributed
// algorithm (§7/§H, Algorithm 13). A server owns a partition of the key
// space and holds, per key, the freezable interval lock table and the
// version history — in a keyspace.Space, the storage kernel it shares
// with the in-process engine. Coordinators (package client) drive it
// through the wire protocol: read-lock, write-lock, freeze, release,
// decide, purge. The footprint requests are per-server batches
// (wire.WriteLockBatchReq and friends) that make one pass over the
// transaction's keys; a single key is a batch of one.
//
// Shared state is striped: the key map (inside the Space) and the
// transaction map are each split over a fixed power-of-two number of
// stripes, each behind its own mutex, so concurrent coordinators touch
// disjoint stripes instead of funnelling through one server-wide lock.
//
// Fault tolerance follows §H.1: each update transaction names a decision
// server hosting its commitment object. If a coordinator disappears
// leaving unfrozen write locks behind, the holding server times out and
// proposes "abort" to the decision server; whatever is decided is then
// applied locally (Lemma 4), so no transaction blocks forever on a dead
// coordinator (Theorem 9).
//
// However a transaction's outcome reaches a server — a decide and the
// share riding it, a freeze, a release, the suspicion scanner, a victim
// abort — it is applied through one routine, endTxn.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/commitment"
	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/metrics"
	"github.com/lpd-epfl/mvtl/internal/repl"
	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/version"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// Config parameterizes a server.
type Config struct {
	// Addr is the listen address (and the server's identity).
	Addr string
	// Network provides the transport.
	Network transport.Network
	// LockWaitTimeout caps how long a blocking lock request may wait
	// before reporting a conflict (deadlock resolution). Default 1s.
	LockWaitTimeout time.Duration
	// WriteLockTimeout is how long unfrozen write locks may sit before
	// the server suspects the coordinator and proposes abort (§H).
	// Default 3s.
	WriteLockTimeout time.Duration
	// ScanInterval is the suspicion scanner period. Default 250ms.
	ScanInterval time.Duration
	// PeerCallTimeout bounds one server-to-server RPC (suspicion
	// proposals and victim aborts), so a partitioned peer costs the
	// scanner a timeout instead of wedging it. Default 2s.
	PeerCallTimeout time.Duration
	// Repl configures the server's replication role; nil keeps the
	// server unreplicated (no epoch fencing, no partition log).
	Repl *ReplConfig
	// Timers supplies every timed wait the server performs (lock-wait
	// budgets, scanner period, peer-call timeouts, standby pull
	// backoff). Nil means SystemTimers; the fault bed passes a
	// clock.Virtual so those waits resolve by timeline jump.
	Timers clock.Timers
	// Logger receives diagnostics; nil disables logging.
	Logger *log.Logger
}

// ReplConfig makes the server one replica of a partition chain: heads
// append every committed version install to a partition log and serve
// it to standbys through the bulk-transfer messages; standbys pull
// snapshot+tail from Upstream and reject coordinator traffic with
// StatusWrongEpoch until promoted.
type ReplConfig struct {
	// Epoch is the initial membership epoch (≥ 1 in replicated
	// clusters).
	Epoch uint64
	// Standby starts the server as a catching-up replica of Upstream
	// instead of a serving head.
	Standby bool
	// Upstream is the address a standby pulls from.
	Upstream string
}

// pullInterval is the standby's poll period once the upstream log is
// drained (pulls repeat immediately while records flow). The partition
// log retains repl.DefaultLogCap records; pulls from before the trim
// point are redirected to a fresh snapshot.
const pullInterval = 2 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.LockWaitTimeout == 0 {
		c.LockWaitTimeout = time.Second
	}
	if c.WriteLockTimeout == 0 {
		c.WriteLockTimeout = 3 * time.Second
	}
	if c.ScanInterval == 0 {
		c.ScanInterval = 250 * time.Millisecond
	}
	if c.PeerCallTimeout == 0 {
		c.PeerCallTimeout = 2 * time.Second
	}
	return c
}

// stripeCount is the number of txn-map stripes; a power of two so stripe
// selection is a mask.
const stripeCount = 32

// pendingWrite is one key a transaction write-locked here, with the
// value buffered for it (Alg. 13 line 3). key is the keyspace.Key's Name,
// never a view of the request that brought the write.
type pendingWrite struct {
	key   string
	value []byte
}

// txnState tracks what this server knows about one transaction. Its
// fields are guarded by the owning txnStripe's mutex, and nothing keeps
// a pointer to it past that mutex: once collected, the record is blanked
// and may be the next transaction's (see txnStripe).
type txnState struct {
	decisionSrv string
	// writes are the keys where the txn holds (possibly unfrozen) write
	// locks, each with its buffered value. Read locks need no record at
	// all: releases and freezes name their keys explicitly, straight off
	// the lock tables. A slice searched linearly, not a map: one
	// transaction's share of writes on one server is a handful of keys,
	// and the inline backing array makes the common record one
	// allocation.
	writes []pendingWrite
	inline [2]pendingWrite
	// firstWriteLock is when the txn first write-locked here.
	firstWriteLock time.Time
	// finished marks that a decision was applied locally.
	finished bool
}

// find returns the position of key in t.writes, or -1.
func (t *txnState) find(key string) int {
	for i := range t.writes {
		if t.writes[i].key == key {
			return i
		}
	}
	return -1
}

// put records value as key's buffered write.
func (t *txnState) put(key string, value []byte) {
	if i := t.find(key); i >= 0 {
		t.writes[i].value = value
		return
	}
	t.writes = append(t.writes, pendingWrite{key: key, value: value})
}

// blank empties t for another transaction, its writes back on the inline
// array.
func (t *txnState) blank() {
	*t = txnState{}
	t.writes = t.inline[:0]
}

// txnStripe is one shard of the transaction map. free keeps collected
// records, blank, for the stripe's next transactions to take: at most
// maxFreeTxns of them, so a server keeps no more than stripeCount ×
// maxFreeTxns records beyond its live ones.
type txnStripe struct {
	mu   sync.Mutex
	txns map[uint64]*txnState
	free []*txnState
}

// maxFreeTxns bounds a stripe's free list. A stripe's live records
// number the transactions running on it, a handful for each client, so
// the stripe's share of a steady load fits and records are made only
// when a burst outgrows it.
const maxFreeTxns = 8

// take returns a blank record, a collected one when there is one.
// Callers hold st.mu.
func (st *txnStripe) take() *txnState {
	n := len(st.free)
	if n == 0 {
		t := new(txnState)
		t.blank()
		return t
	}
	t := st.free[n-1]
	st.free[n-1], st.free = nil, st.free[:n-1]
	return t
}

// recycle blanks a collected record and keeps it for take while the free
// list has room. Callers hold st.mu.
func (st *txnStripe) recycle(t *txnState) {
	if len(st.free) < maxFreeTxns {
		t.blank()
		st.free = append(st.free, t)
	}
}

// Server is one storage server.
type Server struct {
	cfg      Config
	listener transport.Listener
	registry *commitment.Registry
	// waits detects wait-for cycles among transactions blocked on this
	// server's locks. Cross-server cycles are invisible to it, so its
	// edges (labelled with the blocking key) are exported to
	// coordinators through TWaitGraphReq polling, which assemble the
	// global graph and send
	// back TVictimAbortReq for the victim of a confirmed cycle; the
	// lock-wait timeout remains the backstop.
	waits *lock.WaitGraph
	// purgedTxns counts transaction-state records garbage-collected
	// since startup (finished and fully released).
	purgedTxns atomic.Int64

	// Replication state (see ReplConfig). epoch 0 means unreplicated:
	// the fence passes everything and replLog stays nil. On replicated
	// servers every committed version install appends to replLog, and
	// only a head at the request's exact epoch serves mutating traffic.
	epoch   atomic.Uint64
	head    atomic.Bool
	replLog *repl.Log
	replCtr metrics.ReplCounters
	// appliedLSN is the highest upstream LSN this standby has applied —
	// the snapshot watermark after a sync, then the last tail record. A
	// lag barrier compares it against the head's *current* watermark,
	// which no figure the standby reports about itself can replace: it
	// would be only as fresh as its last pull.
	appliedLSN atomic.Uint64
	// pullStop ends the standby pull loop on promotion; pullOnce guards
	// the close when Close races a Promote.
	pullStop chan struct{}
	pullOnce sync.Once

	// keys holds every key's lock table and version history; the lock
	// tables share waits and park their waiters on timers.
	keys       *keyspace.Space
	txnStripes [stripeCount]txnStripe

	// peers caches server-to-server RPC clients (suspicion proposals
	// and victim aborts). Each is a single-connection rpc.Client, so
	// concurrent callers get correlation ids instead of taking turns,
	// and a stalled RPC to one peer never blocks victim aborts routed
	// through a healthy one.
	peersMu sync.Mutex
	peers   map[string]*rpc.Client
	// accepted tracks live inbound connections so Close can unblock
	// their serveConn goroutines: a connection dialed by another server
	// (decide traffic) stays open as long as that server lives, and
	// without an explicit close here Close would wait on it forever.
	acceptedMu sync.Mutex
	accepted   map[transport.Conn]struct{}

	stop chan struct{}
	// closing is set before Close sweeps peers and accepted, so the
	// accept and peer-dial paths can refuse to register new entries the
	// sweep would miss: a conn accepted (or a peer client dialed) after
	// the sweep would otherwise never be closed, and on a virtual
	// timeline its parked goroutine would pin wg.Wait forever.
	closing atomic.Bool
	wg      *clock.Join
	timers  clock.Timers
}

// New starts a server listening at cfg.Addr.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Network == nil {
		return nil, errors.New("server: Config.Network is required")
	}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// The listener's address is the server's identity: coordinators put
	// it in DecisionSrv fields, and proposeAbort compares against it.
	// Over TCP a requested ":0" resolves to the real bound address here.
	cfg.Addr = l.Addr()
	timers := clock.OrSystem(cfg.Timers)
	waits := lock.NewWaitGraph()
	s := &Server{
		cfg:      cfg,
		listener: l,
		timers:   timers,
		wg:       clock.NewJoin(timers, 0),
		registry: commitment.NewRegistry(),
		waits:    waits,
		keys:     keyspace.New(waits, timers),
		peers:    make(map[string]*rpc.Client),
		accepted: make(map[transport.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	for i := range s.txnStripes {
		s.txnStripes[i].txns = make(map[uint64]*txnState)
	}
	if r := cfg.Repl; r != nil {
		s.replLog = repl.NewLog(repl.DefaultLogCap)
		s.epoch.Store(r.Epoch)
		s.head.Store(!r.Standby)
		s.pullStop = make(chan struct{})
		if r.Standby {
			s.wg.Add(1)
			s.timers.Go(s.pullLoop)
		}
	}
	s.wg.Add(2)
	s.timers.Go(s.acceptLoop)
	s.timers.Go(s.suspectLoop)
	return s, nil
}

// Addr returns the server's address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() error {
	s.closing.Store(true)
	close(s.stop)
	err := s.listener.Close()
	s.peersMu.Lock()
	for _, pc := range s.peers {
		_ = pc.Close()
	}
	s.peers = map[string]*rpc.Client{}
	s.peersMu.Unlock()
	s.acceptedMu.Lock()
	for c := range s.accepted {
		_ = c.Close()
	}
	s.acceptedMu.Unlock()
	s.stopPull()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// txnStripeFor selects the stripe owning transaction id. The id layout
// is clientID<<32|seq, so both halves are mixed into the stripe index.
func (s *Server) txnStripeFor(id uint64) *txnStripe {
	return &s.txnStripes[uint32(id^(id>>32))&(stripeCount-1)]
}

// withTxn runs fn with the transaction's state (created if absent) under
// its stripe mutex. fn must not block or call back into the server, nor
// keep the record past its return. After fn returns, the record is
// garbage-collected if the transaction is finished and fully released,
// so every touch point doubles as a GC opportunity and finished records
// do not accumulate.
func (s *Server) withTxn(id uint64, fn func(*txnState)) {
	st := s.txnStripeFor(id)
	st.mu.Lock()
	t, ok := st.txns[id]
	if !ok {
		t = st.take()
		st.txns[id] = t
	}
	fn(t)
	s.gcTxnLocked(st, id, t)
	st.mu.Unlock()
}

// withTxnIfPresent is withTxn without the create: fn runs only if a
// record exists, and the return reports whether it did. Late-arriving
// messages for garbage-collected transactions (a release retry, a
// duplicate decide) use this so they cannot resurrect state.
func (s *Server) withTxnIfPresent(id uint64, fn func(*txnState)) bool {
	st := s.txnStripeFor(id)
	st.mu.Lock()
	t, ok := st.txns[id]
	if ok {
		fn(t)
		s.gcTxnLocked(st, id, t)
	}
	st.mu.Unlock()
	return ok
}

// gcTxnLocked deletes the transaction's record once it is finished and
// holds no write-lock bookkeeping (read-lock state
// needs no record: releases and freezes name their keys explicitly), and
// recycles it. Callers hold st.mu.
func (s *Server) gcTxnLocked(st *txnStripe, id uint64, t *txnState) {
	if !t.finished || len(t.writes) != 0 {
		return
	}
	delete(st.txns, id)
	st.recycle(t)
	s.purgedTxns.Add(1)
	// Drop any unconsumed deadlock-victim mark along with the record.
	s.waits.ClearAbort(lock.Owner(id))
}

// fence reports whether a mutating request stamped with reqEpoch may be
// served: unreplicated servers (epoch 0) accept everything; replicated
// servers require the head role and an exact epoch match, so a
// coordinator still routing to a demoted or stale replica is turned
// away (and can refresh its route) instead of mutating state the chain
// no longer agrees on. A false return has already been counted.
func (s *Server) fence(reqEpoch uint64) bool {
	e := s.epoch.Load()
	if e == 0 {
		return true
	}
	if s.head.Load() && reqEpoch == e {
		return true
	}
	s.replCtr.WrongEpoch()
	return false
}

// --- connection handling ----------------------------------------------------

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.acceptedMu.Lock()
		if s.closing.Load() {
			// Close's sweep may already have passed; registering now
			// would leak a conn nobody closes. (If closing is still
			// false here, the sweep has not taken acceptedMu yet and
			// will see this entry.)
			s.acceptedMu.Unlock()
			_ = conn.Close()
			continue
		}
		s.accepted[conn] = struct{}{}
		s.acceptedMu.Unlock()
		s.wg.Add(1)
		s.timers.Go(func() { s.serveConn(conn) })
	}
}

// serveConn demultiplexes one coordinator connection through
// rpc.ServeConnTimers: requests that may park run in their own
// goroutines and may reply out of order (responses are tagged with the
// request's correlation id); everything else is handled inline in
// arrival order (see dispatch).
func (s *Server) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.acceptedMu.Lock()
		delete(s.accepted, conn)
		s.acceptedMu.Unlock()
	}()
	c := &connState{s: s}
	rpc.ServeConnTimers(conn, c.dispatch, func(err error) {
		s.logf("server %s: send: %v", s.cfg.Addr, err)
	}, s.timers)
}

// connState is one connection's dispatch state. The read loop serves one
// request at a time, so a single set of request structs and one reply
// struct per response type serve every request of the connection: each
// request is decoded in place over the previous one's storage
// (DecodeInto), its keys stay borrowed views of the frame, and its reply
// is filled in place and handed to rpc.Reply by pointer — which encodes
// it before returning, so the struct is free again when the next frame
// is read. The inline path therefore allocates nothing per request
// beyond what the request creates in the server's state.
//
// A request that leaves the read loop (see dispatch) cannot keep using
// this storage, which the next frame overwrites: parkReadLock and
// parkWriteLock copy it into a connState of its own first. Its views
// stay valid as they are — rpc keeps the frame until the parked function
// has returned.
type connState struct {
	s *Server

	readLock  wire.ReadLockBatchReq
	writeLock wire.WriteLockBatchReq
	freeze    wire.FreezeBatchReq
	release   wire.ReleaseBatchReq
	decide    wire.DecideReq

	readLockResp     wire.ReadLockBatchResp
	writeLockResp    wire.WriteLockBatchResp
	writeLockOneResp wire.WriteLockResp
	decideResp       wire.DecideResp

	// addrs interns the decision-server addresses this connection's
	// write-lock requests have named — a cluster has a handful — so that
	// recording one in a transaction's state costs no copy per request.
	addrs []string
}

// maxScratchItems bounds the per-connection scratch a single oversized
// batch may leave behind; beyond it the slices are dropped, not reused.
const maxScratchItems = 1024

// trim drops request scratch that has outgrown maxScratchItems.
func (c *connState) trim() {
	c.readLock.Keys = trimmed(c.readLock.Keys)
	c.writeLock.Items = trimmed(c.writeLock.Items)
	c.freeze.WriteKeys, c.freeze.Reads = trimmed(c.freeze.WriteKeys), trimmed(c.freeze.Reads)
	c.release.Keys, c.release.Reads = trimmed(c.release.Keys), trimmed(c.release.Reads)
	c.decide.Keys, c.decide.Reads = trimmed(c.decide.Keys), trimmed(c.decide.Reads)
}

// trimmed returns s, or nil once its capacity exceeds maxScratchItems.
func trimmed[T any](s []T) []T {
	if cap(s) > maxScratchItems {
		return nil
	}
	return s
}

// maxInternedAddrs bounds connState.addrs against a peer that names a
// fresh decision server in every request.
const maxInternedAddrs = 64

// resized returns s with length n and every element zeroed, reusing its
// capacity when that suffices.
func resized[T any](s []T, n int) []T {
	if cap(s) < n || cap(s) > max(n, maxScratchItems) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// internAddr returns an owned string equal to the view addr.
func (c *connState) internAddr(addr string) string {
	if addr == "" {
		return ""
	}
	if addr == c.s.cfg.Addr {
		return c.s.cfg.Addr
	}
	for _, a := range c.addrs {
		if a == addr {
			return a
		}
	}
	owned := strings.Clone(addr)
	if len(c.addrs) < maxInternedAddrs {
		c.addrs = append(c.addrs, owned)
	}
	return owned
}

// parkReadLock returns a state of its own for the read-lock request in
// c's scratch, for a request about to leave the read loop.
func (c *connState) parkReadLock() *connState {
	p := &connState{s: c.s, readLock: c.readLock}
	p.readLock.Keys = slices.Clone(c.readLock.Keys)
	return p
}

// parkWriteLock is parkReadLock for the write-lock request.
func (c *connState) parkWriteLock() *connState {
	p := &connState{s: c.s, writeLock: c.writeLock}
	p.writeLock.Items = slices.Clone(c.writeLock.Items)
	return p
}

// dispatch is the connection's rpc.Handler. Only two kinds of request
// can park and therefore leave the read loop (their service is returned
// as the parked function): a lock request with its Wait flag set, which
// waits out conflicting locks, and a victim abort, which may call the
// decision server (a peer RPC). Everything else — freeze, release,
// decide, purge, stats, and every no-wait lock request, which is all of
// them under MVTIL and timestamp ordering — is served right here, in
// arrival order. That order is what a coordinator's flow relies on: its
// fire-and-forget freeze has taken effect before the next request on the
// flow is looked at, whether that request is a release or another
// transaction's read. Serving no-wait lock requests inline is FIFO-safe
// because they never block the loop — a conflict is answered with a
// partial or denied grant, not waited for — and a waiting request must
// stay off the loop precisely because the release that unparks it may
// arrive behind it on the same connection.
//
// The one single-key message left, WriteLockReq — which no coordinator
// sends any more, only the benchmark module's probes — is served as a
// batch of one over the same scratch, under the epoch its sender stamped
// it with.
func (c *connState) dispatch(f *wire.FrameBuf, reply rpc.Reply) (parked func(rpc.Reply)) {
	s := c.s
	c.trim()
	switch f.Type() {
	case wire.TReadLockBatchReq:
		if err := c.readLock.DecodeInto(f.Body()); err != nil {
			reply(wire.TReadLockBatchResp, wire.ReadLockBatchResp{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		if c.readLock.Wait {
			p := c.parkReadLock()
			return func(reply rpc.Reply) {
				p.handleReadLockBatch()
				reply(wire.TReadLockBatchResp, &p.readLockResp)
			}
		}
		c.handleReadLockBatch()
		reply(wire.TReadLockBatchResp, &c.readLockResp)
	case wire.TWriteLockReq:
		var one wire.WriteLockReq
		if err := one.DecodeInto(f.Body()); err != nil {
			reply(wire.TWriteLockResp, wire.WriteLockResp{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		c.writeLock = wire.WriteLockBatchReq{
			Txn: one.Txn, Epoch: one.Epoch, DecisionSrv: c.internAddr(one.DecisionSrv), Wait: one.Wait,
			Items: append(c.writeLock.Items[:0], wire.WriteLockItem{Key: one.Key, Set: one.Set, Value: one.Value}),
		}
		if one.Wait {
			p := c.parkWriteLock()
			return func(reply rpc.Reply) {
				p.handleWriteLockBatch()
				reply(wire.TWriteLockResp, p.writeLockOne())
			}
		}
		c.handleWriteLockBatch()
		reply(wire.TWriteLockResp, c.writeLockOne())
	case wire.TWriteLockBatchReq:
		if err := c.writeLock.DecodeInto(f.Body()); err != nil {
			reply(wire.TWriteLockBatchResp, wire.WriteLockBatchResp{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		c.writeLock.DecisionSrv = c.internAddr(c.writeLock.DecisionSrv)
		if c.writeLock.Wait {
			p := c.parkWriteLock()
			return func(reply rpc.Reply) {
				p.handleWriteLockBatch()
				reply(wire.TWriteLockBatchResp, &p.writeLockResp)
			}
		}
		c.handleWriteLockBatch()
		reply(wire.TWriteLockBatchResp, &c.writeLockResp)
	case wire.TFreezeBatchReq:
		req := &c.freeze
		if err := req.DecodeInto(f.Body()); err != nil {
			reply(wire.TFreezeBatchResp, wire.Ack{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		// Unfenced, as endTxn explains. WriteKeys need not be read: every
		// write pending here is the transaction's, and all of them commit.
		s.endTxn(&wire.ReleaseBatchReq{Txn: req.Txn, Committed: true, TS: req.TS, Reads: req.Reads})
		reply(wire.TFreezeBatchResp, &okAck)
	case wire.TReleaseBatchReq:
		if err := c.release.DecodeInto(f.Body()); err != nil {
			reply(wire.TReleaseBatchResp, wire.Ack{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		s.endTxn(&c.release) // unfenced, as endTxn explains
		reply(wire.TReleaseBatchResp, &okAck)
	case wire.TDecideReq:
		req := &c.decide
		if err := req.DecodeInto(f.Body()); err != nil {
			// An explicit error status: a fabricated "abort" decision
			// would be indistinguishable from the commitment object
			// really deciding abort.
			reply(wire.TDecideResp, wire.DecideResp{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		// Epoch 0 bypasses the fence: abort proposals — the suspicion
		// scanner's, a victim abort's, an aborting coordinator's — track
		// no epoch, and accepting them anywhere is safe: abort is the
		// default outcome, and the release one carries is unfenced too.
		if req.Epoch != 0 && !s.fence(req.Epoch) {
			reply(wire.TDecideResp, wire.DecideResp{Status: wire.StatusWrongEpoch, Err: "wrong epoch"})
			return nil
		}
		// The commitment object is hosted here; the decision is applied
		// here as well.
		d := s.registry.Decide(req.Txn, commitment.Decision{Kind: req.Proposal, TS: req.TS})
		end := decided(req.Txn, d)
		if d.Kind == req.Proposal {
			// The proposal won, so the sender's share of the tail that
			// rode along is due.
			end.WritesOnly, end.Keys, end.Reads = req.WritesOnly, req.Keys, req.Reads
		}
		s.endTxn(end)
		c.decideResp = wire.DecideResp{Status: wire.StatusOK, Kind: d.Kind, TS: d.TS}
		reply(wire.TDecideResp, &c.decideResp)
	case wire.TPurgeReq:
		req, err := wire.DecodePurgeReq(f.Body())
		if err != nil {
			// An explicit error status: an empty PurgeResp would read
			// as "purged 0, OK".
			reply(wire.TPurgeResp, wire.PurgeResp{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		v, l := s.keys.PurgeBelow(req.Bound)
		reply(wire.TPurgeResp, wire.PurgeResp{Status: wire.StatusOK, Versions: int64(v), Locks: int64(l)})
	case wire.TStatsReq:
		reply(wire.TStatsResp, s.stats())
	case wire.TWaitGraphReq:
		reply(wire.TWaitGraphResp, wire.WaitGraphResp{Edges: s.exportEdges()})
	case wire.TVictimAbortReq:
		var req wire.VictimAbortReq
		if err := req.DecodeInto(f.Body()); err != nil {
			reply(wire.TVictimAbortResp, wire.Ack{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		return func(reply rpc.Reply) { reply(wire.TVictimAbortResp, s.handleVictimAbort(req)) }
	case wire.TSnapshotChunkReq:
		req, err := wire.DecodeSnapshotChunkReq(f.Body())
		if err != nil {
			reply(wire.TSnapshotChunkResp, wire.SnapshotChunkResp{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		reply(wire.TSnapshotChunkResp, s.handleSnapshotChunk(req))
	case wire.TLogTailReq:
		req, err := wire.DecodeLogTailReq(f.Body())
		if err != nil {
			reply(wire.TLogTailResp, wire.LogTailResp{Status: wire.StatusError, Err: err.Error()})
			return nil
		}
		reply(wire.TLogTailResp, s.handleLogTail(req))
	default:
		s.logf("server %s: unknown message type %d", s.cfg.Addr, f.Type())
	}
	return nil
}

// --- handlers ----------------------------------------------------------------
//
// The two lock handlers are methods of connState: each serves the
// request sitting in its scratch and leaves the answer in the matching
// reply struct. Every message that ends a transaction is served by
// endTxn instead, below.

// handleReadLockBatch runs the read step for a transaction's whole
// share of a static read set: per-key version pick and read-lock
// acquisition (Alg. 13, receive-read-lock-message, batched). It touches
// no transaction state at all — read-lock bookkeeping lives entirely in
// the per-key lock tables, since releases and freezes name their keys
// explicitly.
func (c *connState) handleReadLockBatch() {
	s, req, resp := c.s, &c.readLock, &c.readLockResp
	if !s.fence(req.Epoch) {
		*resp = wire.ReadLockBatchResp{Status: wire.StatusWrongEpoch, Err: "wrong epoch or not the partition head", Results: resp.Results[:0]}
		return
	}
	owner := lock.Owner(req.Txn)
	results := resized(resp.Results, len(req.Keys))
	wait := req.Wait
	for i, k := range req.Keys {
		// Each key gets its own lock-wait budget, exactly as n
		// sequential single-key reads would: one blocked key must not
		// starve its siblings' waits or poison their results.
		results[i] = s.readLockKey(k, owner, req.Upper, wait)
		if results[i].Status != wire.StatusOK {
			// The coordinator aborts on any per-key failure, so once one
			// sub-read has failed there is no point parking on the rest:
			// the remaining keys fall back to no-wait acquisition. This
			// bounds a doomed waiting batch to roughly one lock-wait
			// timeout instead of one per blocked key, and stops piling
			// up waits for a transaction whose coordinator may already
			// have timed out, aborted and released.
			wait = false
		}
	}
	*resp = wire.ReadLockBatchResp{Status: wire.StatusOK, Results: results}
}

// readLockKey answers one key of a read-lock request: the lock table's
// read step, picking below upper and locking up to it. The lock-wait
// budget is armed only for a waiting request, which may park inside the
// step; a no-wait one never parks, so it arms no timer at all.
func (s *Server) readLockKey(key string, owner lock.Owner, upper timestamp.Timestamp, wait bool) wire.ReadLockResult {
	ctx := context.Background()
	if wait {
		var cancel context.CancelFunc
		ctx, cancel = s.timers.WithTimeout(ctx, s.cfg.LockWaitTimeout)
		defer cancel()
	}
	v, got, err := s.keys.Key(key).Locks.Read(ctx, owner, upper, upper, wait)
	switch {
	case err == nil:
		return wire.ReadLockResult{Status: wire.StatusOK, VersionTS: v.TS, Value: v.Value, Got: got}
	case errors.Is(err, version.ErrPurged):
		return wire.ReadLockResult{Status: wire.StatusPurged, Err: err.Error()}
	case errors.Is(err, lock.ErrDeadlock):
		// A deadlock victim gets its own status so coordinators
		// retry it immediately instead of backing off.
		return wire.ReadLockResult{Status: wire.StatusDeadlock, Err: err.Error()}
	default:
		return wire.ReadLockResult{Status: wire.StatusConflict, Err: err.Error()}
	}
}

// writeLockOne renders the batch-of-one answer in c.writeLockResp as
// the single-key response.
func (c *connState) writeLockOne() *wire.WriteLockResp {
	batch := &c.writeLockResp
	c.writeLockOneResp = wire.WriteLockResp{Status: batch.Status, Err: batch.Err}
	if batch.Status == wire.StatusOK {
		r := batch.Results[0]
		c.writeLockOneResp = wire.WriteLockResp{Status: r.Status, Err: r.Err, Got: r.Got, Denied: r.Denied}
	}
	return &c.writeLockOneResp
}

// handleWriteLockBatch acquires write locks and buffers pending values
// for a transaction's whole share of the footprint: per-key lock
// acquisition, then a single pass over the transaction state to record
// everything acquired (Alg. 13, receive-write-lock-message, batched).
// dispatch has already replaced the request's DecisionSrv view by an
// owned string.
func (c *connState) handleWriteLockBatch() {
	s, req, resp := c.s, &c.writeLock, &c.writeLockResp
	// fail answers the whole batch with a request-level status.
	fail := func(st wire.Status, msg string) {
		*resp = wire.WriteLockBatchResp{Status: st, Err: msg, Results: resp.Results[:0]}
	}
	if !s.fence(req.Epoch) {
		fail(wire.StatusWrongEpoch, "wrong epoch or not the partition head")
		return
	}
	// withTxn (creating) is deliberate: this is the one message that
	// legitimately brings a transaction into existence here. The cost is
	// a narrow resurrection race — a write-lock delayed past the
	// suspicion scanner's abort+GC recreates the record and holds locks
	// until the scanner re-reaps it (firstWriteLock is stamped below, so
	// it is re-reaped within WriteLockTimeout); the transaction itself
	// can never commit, since its commitment object already decided.
	finished := false
	s.withTxn(req.Txn, func(t *txnState) {
		if t.finished {
			finished = true
			return
		}
		if req.DecisionSrv != "" {
			t.decisionSrv = req.DecisionSrv
		}
		// Stamp the suspicion clock on the first write-lock *attempt*:
		// even a fully denied batch leaves a record behind, and without
		// a timestamp the suspicion scanner would never reap it if the
		// coordinator dies before deciding.
		if len(req.Items) > 0 && t.firstWriteLock.IsZero() {
			t.firstWriteLock = s.timers.Now()
		}
	})
	if finished {
		fail(wire.StatusAborted, "transaction already decided")
		return
	}

	owner := lock.Owner(req.Txn)
	// Only a waiting batch can park, so only it needs the lock-wait
	// deadline; no-wait acquisitions never consult the context.
	ctx := context.Background()
	if req.Wait {
		var cancel context.CancelFunc
		ctx, cancel = s.timers.WithTimeout(ctx, s.cfg.LockWaitTimeout)
		defer cancel()
	}
	results := resized(resp.Results, len(req.Items))
	// acquired[i] is the key state of item i if any of its set was
	// locked, else nil.
	var acquiredBuf [8]*keyspace.Key
	acquired := acquiredBuf[:]
	if len(req.Items) > len(acquiredBuf) {
		acquired = make([]*keyspace.Key, len(req.Items))
	}
	any := false
	for i := range req.Items {
		it := &req.Items[i]
		ks := s.keys.Key(it.Key)
		res, err := ks.Locks.AcquireWrite(ctx, owner, it.Set, lock.Options{Wait: req.Wait, Partial: true})
		if err != nil {
			status := wire.StatusConflict
			switch {
			case errors.Is(err, lock.ErrFrozen):
				status = wire.StatusFrozen
			case errors.Is(err, lock.ErrDeadlock):
				status = wire.StatusDeadlock
			}
			results[i] = wire.WriteLockResult{Status: status, Err: err.Error(), Denied: res.Denied}
			continue
		}
		results[i] = wire.WriteLockResult{Status: wire.StatusOK, Got: res.Got, Denied: res.Denied}
		if !res.Got.IsEmpty() {
			acquired[i] = ks
			any = true
		}
	}
	if any {
		finishedLate := false
		// Re-check the fence after acquisition: a batch that entered as
		// head can park in AcquireWrite across a demotion, and recording
		// pending writes on an ex-head would dodge the failover drain's
		// live-transaction accounting (it assumes no new pending state
		// after the flip). The coordinator sees WrongEpoch — retryable,
		// nothing was exposed.
		fencedLate := !s.fence(req.Epoch)
		s.withTxn(req.Txn, func(t *txnState) {
			// Re-check: the suspicion scanner may have decided the
			// transaction while this batch was acquiring locks;
			// recording pending writes on a finished transaction would
			// leak unfrozen write locks the scanner never revisits.
			if t.finished {
				finishedLate = true
				return
			}
			if fencedLate {
				// Don't record; and if this batch just created the
				// record, finish it so it garbage-collects right here
				// instead of waiting out the suspicion scanner.
				if len(t.writes) == 0 {
					t.finished = true
				}
				return
			}
			for i := range req.Items {
				if ks := acquired[i]; ks != nil {
					// The request's key and value are borrowed views of
					// its frame, which is recycled when this handler
					// returns; the pending write outlives it, so it is
					// recorded under the key's own name, with a copy of
					// the value.
					t.put(ks.Name, bytes.Clone(req.Items[i].Value))
				}
			}
		})
		if finishedLate || fencedLate {
			for _, ks := range acquired[:len(req.Items)] {
				if ks != nil {
					ks.Locks.ReleaseWrites(owner)
				}
			}
			if fencedLate && !finishedLate {
				fail(wire.StatusWrongEpoch, "demoted during acquisition")
				return
			}
			fail(wire.StatusAborted, "transaction already decided")
			return
		}
	}
	*resp = wire.WriteLockBatchResp{Status: wire.StatusOK, Results: results}
}

// exportEdges snapshots the local wait-for graph for a coordinator's
// poll (TWaitGraphReq), the only way edges leave the server: each edge
// names the waiting transaction, the holder it blocks on, and the key
// of the blocking lock table.
func (s *Server) exportEdges() []wire.WaitEdge {
	local := s.waits.Edges(nil)
	if len(local) == 0 {
		return nil
	}
	out := make([]wire.WaitEdge, len(local))
	for i, e := range local {
		out[i] = wire.WaitEdge{Waiter: uint64(e.Waiter), Holder: uint64(e.Holder), Key: e.Key}
	}
	return out
}

// handleVictimAbort processes a coordinator's verdict on a cross-server
// deadlock cycle: the named transaction, parked on this server, is the
// cycle's victim. The server validates that the transaction is indeed
// waiting here (the coordinator's merged snapshot may be stale), aborts
// it through the commitment object and endTxn when it knows the decision
// server (recorded by the write-lock request that parked it), and wakes the
// parked acquisition with a deadlock error so the victim's coordinator
// aborts and retries immediately instead of sleeping out the lock-wait
// timeout. When the decision server is unknown (a parked read with no
// local writes), only the wake happens — the victim's own coordinator
// then runs the abort through the commitment object, which is the only
// place the outcome is actually decided.
func (s *Server) handleVictimAbort(req wire.VictimAbortReq) wire.Ack {
	owner := lock.Owner(req.Txn)
	if !s.waits.IsWaiting(owner) {
		return wire.Ack{Status: wire.StatusConflict, Err: "transaction not waiting here"}
	}
	var decisionSrv string
	finished := false
	s.withTxnIfPresent(req.Txn, func(t *txnState) {
		decisionSrv = t.decisionSrv
		finished = t.finished
	})
	if !finished && decisionSrv != "" {
		d, ok := s.proposeAbort(req.Txn, decisionSrv)
		if ok {
			s.endTxn(decided(req.Txn, d))
			if d.Kind == wire.DecideCommit {
				// The commitment object already decided commit — the
				// coordinator won the race, so whatever the snapshot
				// showed is no longer a deadlock involving this txn.
				return wire.Ack{Status: wire.StatusConflict, Err: "transaction already committed"}
			}
		}
	}
	s.logf("server %s: deadlock victim txn %d aborted (blocked on %q)", s.cfg.Addr, req.Txn, req.Key)
	s.waits.Abort(owner)
	return wire.Ack{Status: wire.StatusOK}
}

// --- ending a transaction -----------------------------------------------------

// okAck is the answer to every release and every freeze that decoded.
var okAck = wire.Ack{Status: wire.StatusOK}

// decided is the end a decision d applies with nothing riding along.
func decided(txn uint64, d commitment.Decision) *wire.ReleaseBatchReq {
	return &wire.ReleaseBatchReq{Txn: txn, Committed: d.Kind == wire.DecideCommit, TS: d.TS}
}

// endTxn applies a transaction's outcome to this server (Alg. 13; Lemma
// 4: whatever is decided is then applied locally). It is the one way a
// transaction ends here, whichever door the outcome came through: the
// decide and the share riding it, the freeze, the release, the suspicion
// scanner and the victim abort. e carries the outcome — commit at e.TS
// when e.Committed, abort otherwise — the read ranges a commit freezes,
// and the keys whose remaining locks go: all unfrozen ones, or write
// locks only.
//
// In order: the record is marked finished, so a write-lock batch racing
// this finds it decided; every write pending here is committed at the
// commit timestamp — installed and its lock frozen in one step of the
// key's lock table (Server.commit) — and the rest of that lock dropped,
// or all of it dropped on abort; a commit freezes the read ranges
// (garbage collection, Alg. 11 line 33); the keys are released; the
// record is let go. Every pending write here is the transaction's
// own, so none has to be named, and a commit's writes are frozen before
// anything is released — so no door arriving first, and no lost sibling
// frame, can discard a committed write. Ending a transaction twice
// changes nothing.
//
// Nothing here is fenced. endTxn acts only on state a fenced grant
// created — on a server that never granted, it is a no-op — and a
// just-demoted head must accept it: the coordinator decided before the
// epoch flipped and its tail is cast, so turning it away would discard a
// durably decided write, or strand an aborted one's record, while the
// failover drain waits for exactly these installs to reach the
// replication log and these records to go.
func (s *Server) endTxn(e *wire.ReleaseBatchReq) {
	owner := lock.Owner(e.Txn)
	// A snapshot, not the record's own slice: the record keeps its writes
	// until they are dealt with, so a write-lock batch racing this still
	// finds it finished, not gone. A door that finds the record already
	// finished takes the writes too — their installs and freezes are
	// idempotent — so that its release cannot overtake the other door's
	// freezes.
	var buf [4]pendingWrite
	writes, mine := buf[:0], false
	if !s.withTxnIfPresent(e.Txn, func(t *txnState) {
		mine, t.finished = !t.finished, true
		writes = append(writes, t.writes...)
	}) {
		// Nothing is pending here; a victim mark a parked read left
		// behind is all that can be, and the transaction is over.
		s.waits.ClearAbort(owner)
	}
	for _, w := range writes {
		ks := s.keys.Key(w.key)
		if e.Committed {
			s.commit(ks, owner, e.TS, w.value)
		}
		// The rest of the write lock guards nothing now. Drop it here,
		// whether or not e.Keys names the key: a decision the suspicion
		// scanner fetched names none, and an unfrozen write left behind
		// would refuse every later read of the key.
		ks.Locks.ReleaseWrites(owner)
	}
	if e.Committed {
		for _, r := range e.Reads {
			s.keys.Key(r.Key).Locks.FreezeReadIn(owner, timestamp.Span(r.Lo, r.Hi))
		}
	}
	for _, k := range e.Keys {
		ks := s.keys.Key(k)
		if e.WritesOnly {
			ks.Locks.ReleaseWrites(owner)
		} else {
			ks.Locks.ReleaseUnfrozen(owner)
		}
	}
	if mine && len(writes) > 0 {
		s.withTxnIfPresent(e.Txn, func(t *txnState) {
			clear(t.writes)
			t.writes = t.writes[:0]
		})
	}
}

// --- suspicion scanner --------------------------------------------------------

// suspectLoop periodically looks for transactions whose unfrozen write
// locks have been held too long, suspects their coordinator and proposes
// abort to the decision server (write-lock-timeout, Alg. 13).
func (s *Server) suspectLoop() {
	defer s.wg.Done()
	for {
		if s.timers.SleepStop(s.cfg.ScanInterval, s.stop) {
			return
		}
		s.scanOnce()
	}
}

func (s *Server) scanOnce() {
	type suspect struct {
		txn         uint64
		decisionSrv string
	}
	var suspects []suspect
	now := s.timers.Now()
	for i := range s.txnStripes {
		st := &s.txnStripes[i]
		st.mu.Lock()
		for id, t := range st.txns {
			if t.finished || t.firstWriteLock.IsZero() {
				continue
			}
			if now.Sub(t.firstWriteLock) >= s.cfg.WriteLockTimeout {
				suspects = append(suspects, suspect{txn: id, decisionSrv: t.decisionSrv})
			}
		}
		st.mu.Unlock()
	}
	for _, sp := range suspects {
		d, ok := s.proposeAbort(sp.txn, sp.decisionSrv)
		if !ok {
			continue // decision server unreachable; retry next scan
		}
		s.logf("server %s: suspected txn %d, decision %v", s.cfg.Addr, sp.txn, d.Kind)
		s.endTxn(decided(sp.txn, d))
	}
}

// proposeAbort reaches the transaction's commitment object — locally if
// this server is the decision point, over the network otherwise — and
// proposes abort.
func (s *Server) proposeAbort(txn uint64, decisionSrv string) (commitment.Decision, bool) {
	proposal := commitment.Decision{Kind: wire.DecideAbort}
	if decisionSrv == "" || decisionSrv == s.cfg.Addr {
		return s.registry.Decide(txn, proposal), true
	}
	f, err := s.callPeer(decisionSrv, wire.TDecideReq,
		wire.DecideReq{Txn: txn, Proposal: wire.DecideAbort})
	if err != nil {
		// Cannot reach the decision server: do not act unilaterally;
		// the scanner retries later.
		s.logf("server %s: decide via %s: %v", s.cfg.Addr, decisionSrv, err)
		return commitment.Decision{}, false
	}
	d, err := wire.DecodeDecideResp(f.Body())
	f.Release()
	if err != nil || d.Status != wire.StatusOK {
		return commitment.Decision{}, false
	}
	return commitment.Decision{Kind: d.Kind, TS: d.TS}, true
}

// callPeer performs one synchronous RPC to another server over the
// cached per-peer rpc.Client. Peer RPCs are rare — suspicion proposals
// and victim aborts only — so each peer gets a single pipelined
// connection; concurrent callers multiplex on it by correlation id. The
// caller owns the returned frame buffer and must Release it after
// decoding. Calls are bounded by PeerCallTimeout; a connection a call
// found dead is redialed by the next call (package rpc), so a peer that
// crash-restarted on the same address becomes reachable again.
func (s *Server) callPeer(addr string, t wire.MsgType, m wire.Message) (*wire.FrameBuf, error) {
	s.peersMu.Lock()
	if s.closing.Load() {
		// Close's peer sweep may already have passed; a client dialed
		// now would never be closed.
		s.peersMu.Unlock()
		return nil, rpc.ErrClosed
	}
	pc, ok := s.peers[addr]
	if !ok {
		pc = rpc.NewClientTimers(s.cfg.Network, addr, 1, s.timers)
		s.peers[addr] = pc
	}
	s.peersMu.Unlock()
	return s.timedCall(pc, t, m)
}

// timedCall performs one RPC to another server over rc, bounded by
// PeerCallTimeout.
func (s *Server) timedCall(rc *rpc.Client, t wire.MsgType, m wire.Message) (*wire.FrameBuf, error) {
	ctx, cancel := s.timers.WithTimeout(context.Background(), s.cfg.PeerCallTimeout)
	defer cancel()
	return rc.Call(ctx, 0, t, m)
}

// --- maintenance ---------------------------------------------------------------

func (s *Server) stats() wire.StatsResp {
	size := s.keys.Stats()
	st := wire.StatsResp{
		Keys:        int64(size.Keys),
		LockEntries: int64(size.LockEntries),
		FrozenLocks: int64(size.FrozenLockEntries),
		Versions:    int64(size.Versions),
	}
	st.LiveTxns = s.LiveTxns()
	st.PurgedTxns = s.purgedTxns.Load()
	if s.replLog != nil {
		st.ReplEpoch = int64(s.epoch.Load())
		rs := s.replCtr.Snapshot()
		st.ReplPromotions = rs.Promotions
		st.ReplWrongEpoch = rs.WrongEpoch
		st.ReplCatchupBytes = rs.CatchupBytes
	}
	return st
}

// --- replication ---------------------------------------------------------------

// commit installs owner's committed value at ts and freezes its write
// lock there, in one step of the key's lock table (lock.Table.Commit),
// and, on a replicated head, appends the install to the partition log.
// Servers do not trim on commit. Two doors into endTxn can race to
// commit the same version; the table reports a fresh install to one of
// them only — so every install is logged exactly once, and
// install-then-append ordering holds: any record with an LSN at or below
// the log's watermark is already visible to version reads (the
// snapshot/tail inclusion property).
func (s *Server) commit(ks *keyspace.Key, owner lock.Owner, ts timestamp.Timestamp, value []byte) {
	fresh, err := ks.Locks.Commit(owner, ts, value, timestamp.Zero)
	if err != nil {
		s.logf("server %s: commit %q at %v: %v", s.cfg.Addr, ks.Name, ts, err)
	}
	// Log every fresh install, head or not: installs only happen on the
	// commit path (endTxn), so each one is durably acked state. A
	// just-demoted head still logs its in-flight freezes here — a fenced
	// handover drains those records to the successor before it starts
	// serving, so no acked commit is lost to the epoch change. (Standby
	// catch-up does not come through here; it replays pulled records via
	// applyReplRecord at the upstream's LSNs.)
	if fresh && s.replLog != nil {
		s.replLog.Append(ks.Name, ts, value)
	}
}

// handleSnapshotChunk serves one chunk of a full-state transfer to a
// joining replica: every committed version of up to MaxKeys keys from
// the cursor onward. The first chunk's LSN is the log watermark, taken
// *before* any version is read: a commit appends its install to the log
// only after the key's lock table has installed it (Server.commit), so
// everything logged at or below the watermark is in some chunk, and the
// puller resumes the tail at watermark+1 (overlap re-applies
// idempotently).
func (s *Server) handleSnapshotChunk(req wire.SnapshotChunkReq) wire.SnapshotChunkResp {
	if s.replLog == nil {
		return wire.SnapshotChunkResp{Status: wire.StatusError, Err: "server is not replicated"}
	}
	e := s.epoch.Load()
	if req.Epoch != 0 && req.Epoch != e {
		s.replCtr.WrongEpoch()
		return wire.SnapshotChunkResp{Status: wire.StatusWrongEpoch, Err: "wrong epoch"}
	}
	maxKeys := int(req.MaxKeys)
	if maxKeys <= 0 {
		maxKeys = 256
	}
	watermark := s.replLog.NextLSN() - 1
	keys := s.keys.Names()
	start := int(req.Cursor)
	if start > len(keys) {
		start = len(keys)
	}
	end := start + maxKeys
	if end > len(keys) {
		end = len(keys)
	}
	resp := wire.SnapshotChunkResp{Status: wire.StatusOK, Epoch: e, LSN: watermark}
	payload := 0
	for _, k := range keys[start:end] {
		for _, v := range s.keys.Key(k).Locks.VersionSnapshot() {
			if v.TS == timestamp.Zero {
				continue // the initial ⊥ every fresh key already holds
			}
			resp.Records = append(resp.Records, wire.ReplRecord{Key: []byte(k), TS: v.TS, Value: v.Value})
			payload += len(k) + len(v.Value)
		}
	}
	if end < len(keys) {
		resp.NextCursor = uint64(end)
	}
	s.replCtr.CatchupBytes(payload)
	return resp
}

// handleLogTail serves the partition log from LSN From onward, capped at
// MaxRecords. A From before the retained window answers SnapshotNeeded
// instead of records; the puller re-syncs via snapshot.
func (s *Server) handleLogTail(req wire.LogTailReq) wire.LogTailResp {
	if s.replLog == nil {
		return wire.LogTailResp{Status: wire.StatusError, Err: "server is not replicated"}
	}
	e := s.epoch.Load()
	if req.Epoch != 0 && req.Epoch != e {
		s.replCtr.WrongEpoch()
		return wire.LogTailResp{Status: wire.StatusWrongEpoch, Err: "wrong epoch"}
	}
	maxRecords := int(req.MaxRecords)
	if maxRecords <= 0 {
		maxRecords = 512
	}
	recs, next, trimmed := s.replLog.From(nil, req.From, maxRecords)
	resp := wire.LogTailResp{Status: wire.StatusOK, Epoch: e, NextLSN: next, SnapshotNeeded: trimmed}
	payload := 0
	for _, r := range recs {
		resp.Records = append(resp.Records, wire.ReplRecord{LSN: r.LSN, Key: []byte(r.Key), TS: r.TS, Value: r.Value})
		payload += len(r.Key) + len(r.Value)
	}
	s.replCtr.CatchupBytes(payload)
	return resp
}

// applyReplRecord installs one pulled record locally. Key and Value are
// borrowed views of the pull frame, so both are copied out. Installs are
// idempotent (ErrExists tolerated) — the snapshot/tail overlap and chunk
// resends replay records freely. Tail records (LSN ≠ 0) also land in the
// standby's own log at the head's LSN, so a promoted standby can serve
// catch-up itself; a reported gap makes the pull loop re-sync.
func (s *Server) applyReplRecord(r *wire.ReplRecord) error {
	key := string(r.Key)
	val := bytes.Clone(r.Value)
	ks := s.keys.Key(key)
	if err := ks.Locks.Install(r.TS, val); err != nil && !errors.Is(err, version.ErrExists) {
		s.logf("server %s: repl install %q at %v: %v", s.cfg.Addr, key, r.TS, err)
	}
	if r.LSN != 0 {
		return s.replLog.AppendAt(r.LSN, key, r.TS, val)
	}
	return nil
}

// pullSnapshot streams the upstream's full state chunk by chunk and
// returns the first chunk's log watermark; the tail pull resumes at
// watermark+1. The standby's own log is reset first: the records between
// its old tail and the new watermark were never pulled, and the log must
// stay contiguous to serve From after a promotion.
func (s *Server) pullSnapshot(rc *rpc.Client) (watermark uint64, ok bool) {
	s.replLog.Reset()
	var cursor uint64
	first := true
	for {
		f, err := s.timedCall(rc, wire.TSnapshotChunkReq, wire.SnapshotChunkReq{Cursor: cursor})
		if err != nil {
			return 0, false
		}
		chunk, err := wire.DecodeSnapshotChunkResp(f.Body())
		if err != nil || chunk.Status != wire.StatusOK {
			f.Release()
			return 0, false
		}
		if first {
			watermark = chunk.LSN
			first = false
		}
		s.adoptEpoch(chunk.Epoch)
		for i := range chunk.Records {
			_ = s.applyReplRecord(&chunk.Records[i]) // LSN 0: never errors
		}
		f.Release()
		if chunk.NextCursor == 0 {
			s.appliedLSN.Store(watermark)
			return watermark, true
		}
		cursor = chunk.NextCursor
	}
}

// pullLoop is the standby's catch-up driver: snapshot once, then tail
// the upstream's log — immediately again while records flow, backing off
// to pullInterval when drained. It exits on Close or promotion.
func (s *Server) pullLoop() {
	defer s.wg.Done()
	r := s.cfg.Repl
	rc := rpc.NewClientTimers(s.cfg.Network, r.Upstream, 1, s.timers)
	defer func() { _ = rc.Close() }()
	var from uint64
	needSnapshot := true
	var tail wire.LogTailResp
	for {
		select {
		case <-s.pullStop:
			return
		case <-s.stop:
			return
		default:
		}
		if needSnapshot {
			w, ok := s.pullSnapshot(rc)
			if !ok {
				s.sleepPull()
				continue
			}
			from = w + 1
			needSnapshot = false
		}
		f, err := s.timedCall(rc, wire.TLogTailReq, wire.LogTailReq{From: from, MaxRecords: 512})
		if err != nil {
			s.sleepPull()
			continue
		}
		if derr := tail.DecodeInto(f.Body()); derr != nil || tail.Status != wire.StatusOK {
			f.Release()
			s.sleepPull()
			continue
		}
		s.adoptEpoch(tail.Epoch)
		if tail.SnapshotNeeded {
			f.Release()
			needSnapshot = true
			continue
		}
		// Records borrow the frame; apply before releasing it.
		for i := range tail.Records {
			if aerr := s.applyReplRecord(&tail.Records[i]); aerr != nil {
				s.logf("server %s: %v", s.cfg.Addr, aerr)
				needSnapshot = true
				break
			}
			s.appliedLSN.Store(tail.Records[i].LSN)
			from = tail.Records[i].LSN + 1
		}
		f.Release()
		if needSnapshot {
			continue
		}
		if len(tail.Records) == 0 {
			s.sleepPull()
		}
	}
}

// sleepPull waits one pull interval, returning early on stop or
// promotion (Close routes through stopPull, so pullStop covers both).
func (s *Server) sleepPull() {
	s.timers.SleepStop(pullInterval, s.pullStop)
}

// adoptEpoch moves a standby's epoch forward to the upstream's serving
// epoch (never backward), so stats report current membership. Harmless
// for fencing: a standby rejects mutating traffic at any epoch.
func (s *Server) adoptEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Promote makes this server the partition head at epoch e: the standby
// pull loop stops and the fence starts admitting traffic stamped e. The
// caller (the cluster's director) must have stopped or demoted the old
// head first — two servers heading the same partition would diverge.
func (s *Server) Promote(e uint64) {
	s.stopPull()
	s.epoch.Store(e)
	s.head.Store(true)
	s.replCtr.Promotion()
	s.logf("server %s: promoted to head at epoch %d", s.cfg.Addr, e)
}

// Demote strips the head role at epoch e (a planned handover): the
// server keeps serving catch-up from its log but turns mutating traffic
// away with StatusWrongEpoch. Demotions are not counted as promotions.
func (s *Server) Demote(e uint64) {
	s.epoch.Store(e)
	s.head.Store(false)
	s.logf("server %s: demoted at epoch %d", s.cfg.Addr, e)
}

// AppliedLSN returns the highest upstream log record this standby has
// applied (0 before the first completed snapshot). Meaningless on heads.
func (s *Server) AppliedLSN() uint64 { return s.appliedLSN.Load() }

// LogWatermark returns the last LSN this server has assigned to a
// committed install — the point a fully caught-up standby has applied
// up to. Zero on unreplicated servers and empty logs.
func (s *Server) LogWatermark() uint64 {
	if s.replLog == nil {
		return 0
	}
	return s.replLog.NextLSN() - 1
}

// IsHead reports whether this server currently serves its partition.
func (s *Server) IsHead() bool { return s.head.Load() }

// LiveTxns counts the transaction-state records currently held (pending
// writes or unreleased write-lock bookkeeping). The failover harness
// polls it on a just-demoted head: stably zero means every in-flight
// commit has frozen (and logged its installs) or released, and since
// new write locks are fenced, the replication log's watermark is fixed
// from that point on.
func (s *Server) LiveTxns() int64 {
	var n int64
	for i := range s.txnStripes {
		st := &s.txnStripes[i]
		st.mu.Lock()
		n += int64(len(st.txns))
		st.mu.Unlock()
	}
	return n
}

// stopPull ends the standby pull loop; safe to call repeatedly and on
// servers that never pulled.
func (s *Server) stopPull() {
	if s.pullStop == nil {
		return
	}
	s.pullOnce.Do(func() { close(s.pullStop) })
}
