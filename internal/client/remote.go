package client

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/version"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// routeBatch is a transaction's pinned route for one partition — every
// message the transaction sends the partition goes to this head under
// this epoch, even if a failover happens mid-flight (the stale pin is
// fenced server-side; the transaction aborts and the retry re-routes) —
// plus the partition's share of the per-server batch in flight: keys
// names[lo:hi], the staged request msg (nil when the partition has no
// share), and the settled exchange fb/err. read backs msg on the read
// path, so a read-lock request is encoded from memory the transaction
// owns instead of boxed per call.
type routeBatch struct {
	part   int32
	addr   string
	epoch  uint64
	lo, hi int
	msg    wire.Message
	fb     *wire.FrameBuf
	err    error
	read   wire.ReadLockBatchReq
}

// remoteKey is what the coordinator knows about one key of the
// footprint beyond what core.Txn does. held: a server answered a lock
// request for the key, so a release must reach it. locked is what the
// servers granted: the read locks, until a write-lock request is
// answered (wlocked) — from then on the write locks, which are all the
// commit step asks of a written key.
type remoteKey struct {
	part          int32
	held, wlocked bool
	locked        timestamp.Set
}

// A transaction within the inline capacities (core's footprint has the
// same) keeps all its bookkeeping in its one allocation.
const (
	footInline  = 8
	routeInline = 3
)

// errStaleRoute marks a request rejected by the epoch fence before it
// reached any decision point: provably not acted on, so the coordinator
// may abort cleanly instead of reporting an uncertain outcome.
var errStaleRoute = errors.New("stale route: wrong epoch")

// remoteDeadlock is a server's report that the request lost a deadlock:
// the server's rendering of a lock.ErrDeadlock, and matched as one.
type remoteDeadlock string

func (e remoteDeadlock) Error() string        { return string(e) }
func (e remoteDeadlock) Is(target error) bool { return target == lock.ErrDeadlock }

// remoteTxn is the remote backend of one transaction (Alg. 11): it
// carries out core.Txn's steps by messages to the storage servers. The
// Txn it serves is its first field, so the two are one allocation.
type remoteTxn struct {
	core.Txn
	client *Client

	// keys is aligned with the footprint (sync grows it). routes pins
	// each partition's (head, epoch) at first use, sorted by partition —
	// the order every per-server fan-out (lock batches, freeze and
	// tail casts) goes out in. decision is the decision server's pinned
	// route (§H.1); its addr is "" until a write establishes it.
	keys     []remoteKey
	routes   []routeBatch
	decision struct {
		part  int32
		addr  string
		epoch uint64
	}

	// Scratch shared by the per-server batches (see stage): the positions
	// a tail covers, the keys of the batch in hand, the read path's
	// results between fan-out and settle, and a committed release's read
	// ranges. req backs the requests the calling goroutine sends one at a
	// time, so they too are encoded in place rather than boxed.
	held    []int32
	names   []string
	results []wire.ReadLockResult
	reads   []wire.FreezeReadItem
	req     struct {
		write   wire.WriteLockReq
		decide  wire.DecideReq
		freeze  wire.FreezeBatchReq
		release wire.ReleaseBatchReq
	}

	keyBuf   [footInline]remoteKey
	heldBuf  [footInline]int32
	nameBuf  [footInline]string
	routeBuf [routeInline]routeBatch
}

var _ core.Backend = (*remoteTxn)(nil)

// Begin implements kv.DB: the transaction is a *core.Txn of the client's
// engine, over a new remote backend.
func (c *Client) Begin(ctx context.Context) (kv.Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rt := &remoteTxn{client: c}
	rt.keys = rt.keyBuf[:0]
	rt.held = rt.heldBuf[:0]
	rt.names = rt.nameBuf[:0]
	rt.routes = rt.routeBuf[:0]
	// Transaction ids are globally unique: client id in the high bits.
	c.engine.Begin(&rt.Txn, uint64(uint32(c.cfg.ID))<<32|uint64(c.nextSq.Add(1)), rt)
	return &rt.Txn, nil
}

// sync extends keys to the footprint, placing each new key.
func (rt *remoteTxn) sync() {
	for i := len(rt.keys); i < rt.Len(); i++ {
		rt.keys = append(rt.keys, remoteKey{part: int32(rt.client.partitionFor(rt.KeyName(int32(i))))})
	}
}

// pin returns the position in rt.routes of partition p's route, pinning
// the client's current route on first use. A new pin shifts the routes
// after it: positions and pointers are good only until the next one.
func (rt *remoteTxn) pin(p int32) int {
	i := 0
	for ; i < len(rt.routes) && rt.routes[i].part <= p; i++ {
		if rt.routes[i].part == p {
			return i
		}
	}
	addr, epoch := rt.client.routeFor(int(p))
	rt.routes = append(rt.routes, routeBatch{})
	copy(rt.routes[i+1:], rt.routes[i:])
	rt.routes[i] = routeBatch{part: p, addr: addr, epoch: epoch}
	return i
}

// stage prepares a per-server batch over the footprint positions idx: it
// sorts idx by partition (stably, so each server's share keeps the
// caller's order), pins their routes, and lays their keys out in
// rt.names, aligned with idx — partition r's share is [r.lo, r.hi) of
// both.
func (rt *remoteTxn) stage(idx []int32) {
	rt.sync()
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(rt.keys[a].part, rt.keys[b].part) })
	rt.names = rt.names[:0]
	for _, fi := range idx {
		rt.pin(rt.keys[fi].part)
		rt.names = append(rt.names, rt.KeyName(fi))
	}
	k := 0
	for i := range rt.routes {
		r := &rt.routes[i]
		r.lo = k
		for k < len(idx) && rt.keys[idx[k]].part == r.part {
			k++
		}
		r.hi = k
	}
}

// exchange performs one staged route's request and parks the settled
// result — the pooled response frame, owned by the route until settle,
// or the transport error — on the route.
func (rt *remoteTxn) exchange(ctx context.Context, r *routeBatch, t wire.MsgType, wait bool) {
	f, err := rt.client.callWaitable(ctx, r.addr, rt.ID(), t, r.msg, wait)
	r.fb, r.err = f, err
}

// fanOut exchanges every staged route's request (r.msg, encoded
// straight into a pooled frame by the RPC layer) in parallel and
// returns once all have settled. The last staged route runs on the
// calling goroutine, so a batch that involves one server — every
// single-key Read — costs no goroutine, join or closure, and one over N
// servers costs N-1. Decoding, folding and settle stay with the caller.
func (rt *remoteTxn) fanOut(ctx context.Context, t wire.MsgType, wait bool) {
	var last *routeBatch
	var join *clock.Join
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.msg == nil {
			continue
		}
		if last != nil {
			if join == nil {
				join = clock.NewJoin(rt.client.timers, 0)
			}
			join.Add(1)
			// Copies for the closure: capturing join itself would move it
			// to the heap on the one-server path too.
			child, j := last, join
			rt.client.timers.Go(func() {
				rt.exchange(ctx, child, t, wait)
				j.Done() // while this child is still a registered actor
			})
		}
		last = r
	}
	if last == nil {
		return
	}
	rt.exchange(ctx, last, t, wait)
	if join != nil {
		// Credited join, not a bare channel drain: the last child's Done
		// wakes this goroutine with a runnability credit, so the virtual
		// timeline cannot slip timer fires into the handoff.
		join.Wait()
	}
}

// checkBatch turns one route's decoded batch response into r.err (left
// alone when the exchange or the decode already failed): the request
// must have been accepted, under the pinned epoch, with one result per
// key. Piggybacked wait-for edges go to the deadlock detector.
func (rt *remoteTxn) checkBatch(r *routeBatch, what string, status wire.Status, errStr string, results int, edges []wire.WaitEdge) {
	switch {
	case r.err != nil:
		return
	case status == wire.StatusWrongEpoch:
		r.err = fmt.Errorf("%s batch via %s: %s: %w", what, r.addr, errStr, errStaleRoute)
	case status != wire.StatusOK:
		r.err = fmt.Errorf("%s batch via %s: %s", what, r.addr, errStr)
	case results != r.hi-r.lo:
		r.err = fmt.Errorf("%s batch via %s: %d results for %d keys", what, r.addr, results, r.hi-r.lo)
	}
	if det := rt.client.det; det != nil {
		det.observe(r.addr, edges)
	}
}

// settle ends a fan-out: it releases every response frame still parked
// on a route, unstages the routes, and drops the read results, whose
// values were views into those frames.
func (rt *remoteTxn) settle() {
	clear(rt.results)
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.fb != nil {
			r.fb.Release()
		}
		r.msg, r.fb, r.err = nil, nil, nil
	}
}

// denied renders a server's refusal of one key's lock request, in a
// batch of n, keeping what callers classify: a lost deadlock, a fenced
// route.
func denied(n int, key string, status wire.Status, msg string) error {
	err := errors.New(msg)
	switch status {
	case wire.StatusDeadlock:
		err = remoteDeadlock(msg)
	case wire.StatusWrongEpoch:
		err = fmt.Errorf("%s: %w", msg, errStaleRoute)
	}
	return core.KeyErr(n, key, err)
}

// ReadLocks implements core.Backend (Alg. 11 lines 10-14): one batched
// read-lock request per server, in parallel, the servers running the
// read step. Values are owned copies; nil means ⊥.
func (rt *remoteTxn) ReadLocks(ctx context.Context, _ *core.Txn, keys []int32, upper timestamp.Timestamp, wait bool, out []core.ReadResult) error {
	// stage orders keys by server; names, results and out are all
	// aligned with it from here on.
	rt.stage(keys)
	if n := len(keys); cap(rt.results) < n {
		rt.results = make([]wire.ReadLockResult, n)
	}
	results := rt.results[:len(keys)]
	for i := range rt.routes {
		if r := &rt.routes[i]; r.hi > r.lo {
			r.read = wire.ReadLockBatchReq{Txn: rt.ID(), Epoch: r.epoch, Upper: upper, Wait: wait, Keys: rt.names[r.lo:r.hi]}
			r.msg = &r.read
		}
	}
	rt.fanOut(ctx, wire.TReadLockBatchReq, wait)
	// Decoded read results borrow their Value views from the response
	// frames, so the pooled buffers stay alive until the fold below has
	// copied every escaping value out.
	defer rt.settle()

	var firstErr error
	var resp wire.ReadLockBatchResp
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.msg == nil {
			continue
		}
		if r.err == nil {
			// Decode straight into the server's share of results: the
			// appends of DecodeInto land in the zero-length, capped slice
			// (too many results outgrow it and fail checkBatch instead).
			resp.Results = results[r.lo:r.lo:r.hi]
			r.err = resp.DecodeInto(r.fb.Body())
		}
		rt.checkBatch(r, "read", resp.Status, resp.Err, len(resp.Results), resp.Edges)
		if firstErr = cmp.Or(firstErr, r.err); r.err != nil {
			clear(results[r.lo:r.hi]) // no status: nothing was granted
		}
	}
	// Record every acquired lock before acting on any failure: Release
	// covers what keys says is held, so a key locked on a healthy server
	// must be marked even when a sibling batch or a sibling key failed —
	// otherwise its read locks would linger server-side until purge.
	for i, fi := range keys {
		if res := &results[i]; res.Status == wire.StatusOK {
			rt.keys[fi].held, rt.keys[fi].locked = true, rt.keys[fi].locked.Add(res.Got)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for i := range keys {
		res := &results[i]
		if res.Status != wire.StatusOK {
			return denied(len(keys), rt.names[i], res.Status, res.Err)
		}
		// res.Value is a borrowed view of a pooled response frame; the
		// caller's copy outlives it (bytes.Clone keeps nil nil: ⊥).
		out[i].Version = version.Version{TS: res.VersionTS, Value: bytes.Clone(res.Value)}
		out[i].Got = res.Got
	}
	return nil
}

// WriteLocks implements core.Backend (Alg. 11 lines 3-9), establishing
// the decision server on first use (§H.1: the first server reached by a
// write). One key goes out as the single-key request; a larger batch
// (a write set locked at commit) as one batch request per server, in
// parallel, so W writes cost O(servers) round trips instead of O(W).
// The servers always grant what they can: an all-or-nothing request
// (opts.Partial unset) is one whose partial grant counts as a denial.
func (rt *remoteTxn) WriteLocks(ctx context.Context, _ *core.Txn, keys []int32, set timestamp.Set, opts lock.Options, out []lock.WriteResult) error {
	rt.sync()
	if rt.decision.addr == "" {
		r := &rt.routes[rt.pin(rt.keys[keys[0]].part)]
		rt.decision.part, rt.decision.addr, rt.decision.epoch = r.part, r.addr, r.epoch
	}
	if len(keys) == 1 {
		fi := keys[0]
		route := &rt.routes[rt.pin(rt.keys[fi].part)]
		value, _ := rt.WriteOf(fi)
		rt.req.write = wire.WriteLockReq{
			Txn:         rt.ID(),
			Epoch:       route.epoch,
			Key:         rt.KeyName(fi),
			DecisionSrv: rt.decision.addr,
			Set:         set,
			Wait:        opts.Wait,
			Value:       value,
		}
		f, err := rt.client.callWaitable(ctx, route.addr, rt.ID(), wire.TWriteLockReq, &rt.req.write, opts.Wait)
		if err != nil {
			return err
		}
		resp, err := wire.DecodeWriteLockResp(f.Body())
		f.Release() // nothing borrowed: Sets and strings are owned copies
		if err != nil {
			return err
		}
		return rt.granted(1, fi, wire.WriteLockResult{Status: resp.Status, Err: resp.Err, Got: resp.Got, Denied: resp.Denied}, opts, &out[0])
	}

	rt.stage(keys)
	items := make([]wire.WriteLockItem, len(keys))
	for i, fi := range keys {
		value, _ := rt.WriteOf(fi)
		items[i] = wire.WriteLockItem{Key: rt.names[i], Set: set, Value: value}
	}
	for i := range rt.routes {
		if r := &rt.routes[i]; r.hi > r.lo {
			r.msg = wire.WriteLockBatchReq{Txn: rt.ID(), Epoch: r.epoch, DecisionSrv: rt.decision.addr, Wait: opts.Wait, Items: items[r.lo:r.hi]}
		}
	}
	rt.fanOut(ctx, wire.TWriteLockBatchReq, opts.Wait)
	defer rt.settle()

	// Acquired sets are recorded for every key of every batch that
	// settled; the first denial or transport failure is returned.
	var firstErr error
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.msg == nil {
			continue
		}
		var resp wire.WriteLockBatchResp
		if r.err == nil {
			// nothing borrowed: Sets and strings are owned
			resp, r.err = wire.DecodeWriteLockBatchResp(r.fb.Body())
		}
		rt.checkBatch(r, "write-lock", resp.Status, resp.Err, len(resp.Results), resp.Edges)
		firstErr = cmp.Or(firstErr, r.err)
		for j := 0; r.err == nil && j < len(resp.Results); j++ {
			firstErr = cmp.Or(firstErr, rt.granted(len(keys), keys[r.lo+j], resp.Results[j], opts, &out[r.lo+j]))
		}
	}
	return firstErr
}

// granted records one key's answer to a write-lock request of n keys —
// what was granted joins keys, in storage of its own — and reports it in
// out, or as the key's failure.
func (rt *remoteTxn) granted(n int, fi int32, res wire.WriteLockResult, opts lock.Options, out *lock.WriteResult) error {
	if res.Status != wire.StatusOK {
		return denied(n, rt.KeyName(fi), res.Status, res.Err)
	}
	k := &rt.keys[fi]
	if !k.wlocked {
		k.held, k.wlocked, k.locked = true, true, timestamp.Set{}
	}
	k.locked = k.locked.Union(res.Got)
	out.Got, out.Denied = res.Got, res.Denied
	if !opts.Partial && !res.Denied.IsEmpty() {
		return core.KeyErr(n, rt.KeyName(fi), fmt.Errorf("write-lock %v denied at %v", out.Got.Union(out.Denied), res.Denied))
	}
	return nil
}

// Candidates implements core.Backend from the servers' grants (Alg. 11
// line 17).
func (rt *remoteTxn) Candidates(_ *core.Txn, t *timestamp.ShrinkingSet) {
	rt.sync()
	for i := range rt.keys {
		k := &rt.keys[i]
		_, read := rt.ReadOf(int32(i))
		_, written := rt.WriteOf(int32(i))
		switch {
		case written && !k.wlocked:
			t.Intersect(timestamp.Set{})
		case written || read:
			t.Intersect(k.locked)
		}
	}
}

// decides reports whether r leads to the decision server, whose share of
// a staged tail rides the proposal instead of a message of its own.
func (rt *remoteTxn) decides(r *routeBatch) bool {
	return rt.decision.addr != "" && r.part == rt.decision.part
}

// propose puts commit at ts to the transaction's commitment object (Alg.
// 11 line 23) and reports what was decided. Under garbage collection
// the proposal carries the decision server's share of the staged tail —
// the decision installs and freezes the writes there in any case
// (server.applyDecision).
func (rt *remoteTxn) propose(ctx context.Context, ts timestamp.Timestamp, gc bool) (core.Outcome, error) {
	srv := rt.decision.addr
	rt.req.decide = wire.DecideReq{Txn: rt.ID(), Epoch: rt.decision.epoch, Proposal: wire.DecideCommit, TS: ts}
	if gc {
		r := &rt.routes[rt.pin(rt.decision.part)]
		rt.req.decide.Keys, rt.req.decide.Reads = rt.names[r.lo:r.hi], rt.freezeReads(r, ts)
	}
	var resp wire.DecideResp
	f, err := rt.client.call(ctx, srv, rt.ID(), wire.TDecideReq, &rt.req.decide)
	if err == nil {
		resp, err = wire.DecodeDecideResp(f.Body())
		f.Release()
	}
	switch {
	case errors.Is(err, transport.ErrUnavailable):
		// A dial that never connected provably never delivered the
		// proposal; only the coordinator proposes commit, so the outcome
		// can still only be abort.
		return core.Aborted, err
	case err != nil:
		// Any other failure — timeout, reset, partition — leaves the
		// proposal possibly delivered and possibly decided.
		return core.Uncertain, err
	case resp.Status == wire.StatusWrongEpoch:
		// The fence turned the proposal away before the commitment
		// object saw it: provably undecided, so abort likewise.
		return core.Aborted, fmt.Errorf("decide %q: %s: %w", srv, resp.Err, errStaleRoute)
	case resp.Status != wire.StatusOK:
		// A request-level failure is not a decision; treating it as one
		// would report "decided abort" for what was e.g. a codec error.
		return core.Uncertain, fmt.Errorf("decide %q: %s", srv, resp.Err)
	case resp.Kind != wire.DecideCommit:
		return core.Aborted, errors.New("commitment object decided abort")
	}
	return core.Committed, nil
}

// stageTail stages the transaction's last message to each server: over
// the written keys, and when all is set over every other key a server
// holds locks for as well.
func (rt *remoteTxn) stageTail(all bool) {
	rt.sync()
	rt.held = rt.held[:0]
	for i := range rt.keys {
		if _, written := rt.WriteOf(int32(i)); written || all && rt.keys[i].held {
			rt.held = append(rt.held, int32(i))
		}
	}
	rt.stage(rt.held)
}

// freezeReads lists the read-lock ranges a commit at ts freezes on r's
// staged keys: from just above each version read up to ts.
func (rt *remoteTxn) freezeReads(r *routeBatch, ts timestamp.Timestamp) []wire.FreezeReadItem {
	if rt.reads == nil {
		rt.reads = make([]wire.FreezeReadItem, 0, len(rt.held))
	}
	rt.reads = rt.reads[:0]
	for _, fi := range rt.held[r.lo:r.hi] {
		if ver, read := rt.ReadOf(fi); read && ver.Before(ts) {
			rt.reads = append(rt.reads, wire.FreezeReadItem{Key: rt.KeyName(fi), Lo: ver.Next(), Hi: ts})
		}
	}
	return rt.reads
}

// Commit implements core.Backend (Alg. 11 lines 23-34): it proposes
// commit at ts to the transaction's commitment object and, once that is
// decided, casts every other server the one message that finishes the
// transaction there — nobody waits for it: the decision is durable, and
// a server the message never reaches finishes through the timeout path.
// Under garbage collection that message is a committed release (freeze
// my writes at ts, freeze my read locks between version read and ts,
// drop the rest); without, a freeze of the write locks, and the servers
// that hold only read locks are sent nothing. A transaction that never
// asked for a write lock has no decision server; its outcome is decided
// locally (nothing is pending anywhere).
func (rt *remoteTxn) Commit(ctx context.Context, _ *core.Txn, ts timestamp.Timestamp, gc bool) (core.Outcome, error) {
	rt.stageTail(gc)
	if rt.decision.addr != "" {
		if outcome, err := rt.propose(ctx, ts, gc); outcome != core.Committed {
			return outcome, err
		}
	}
	var firstErr error
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.hi == r.lo || rt.decides(r) {
			continue
		}
		var err error
		if gc {
			rt.req.release = wire.ReleaseBatchReq{Txn: rt.ID(), Epoch: r.epoch, Committed: true, TS: ts, Keys: rt.names[r.lo:r.hi], Reads: rt.freezeReads(r, ts)}
			err = rt.client.cast(r.addr, rt.ID(), wire.TReleaseBatchReq, &rt.req.release)
		} else {
			rt.req.freeze = wire.FreezeBatchReq{Txn: rt.ID(), Epoch: r.epoch, TS: ts, WriteKeys: rt.names[r.lo:r.hi]}
			err = rt.client.cast(r.addr, rt.ID(), wire.TFreezeBatchReq, &rt.req.freeze)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("client: commit tail via %s: %w", r.addr, err)
		}
	}
	return core.Committed, firstErr
}

// Abort implements core.Backend: it proposes abort to the commitment
// object and releases every key a server holds locks or a buffered write
// for, one message per server — the proposal, which carries the decision
// server's release, and a release batch to each of the others — all
// fire-and-forget (Alg. 11 line 34). Failures do not matter: only the
// coordinator proposes commit, so an aborting coordinator's outcome can
// only be abort and dropping pending writes is correct, and servers left
// holding locks suspect the coordinator and clean up on their own (Lemma
// 4). The proposal goes out unfenced (epoch 0), as releases are: a
// demoted head must drain the transactions it was left with.
func (rt *remoteTxn) Abort(_ context.Context, _ *core.Txn, writesOnly bool) {
	rt.stageTail(true)
	if rt.decision.addr != "" {
		r := &rt.routes[rt.pin(rt.decision.part)]
		rt.req.decide = wire.DecideReq{Txn: rt.ID(), Proposal: wire.DecideAbort, WritesOnly: writesOnly, Keys: rt.names[r.lo:r.hi]}
		_ = rt.client.cast(r.addr, rt.ID(), wire.TDecideReq, &rt.req.decide)
	}
	rt.req.release = wire.ReleaseBatchReq{Txn: rt.ID(), WritesOnly: writesOnly}
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.hi == r.lo || rt.decides(r) {
			continue
		}
		rt.req.release.Epoch, rt.req.release.Keys = r.epoch, rt.names[r.lo:r.hi]
		// Nothing waits on a release, so a failed send has nobody to
		// report to; cast has already evicted the broken connection.
		_ = rt.client.cast(r.addr, rt.ID(), wire.TReleaseBatchReq, &rt.req.release)
	}
}
