package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/rpc"
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
// share), the started call, and the settled exchange fb/err.
// read and write back msg on the two lock paths, so a lock request is
// encoded from memory the transaction's state owns instead of boxed per
// call.
type routeBatch struct {
	route
	lo, hi int
	msg    wire.Message
	call   rpc.Pending
	fb     *wire.FrameBuf
	err    error
	read   wire.ReadLockBatchReq
	write  wire.WriteLockBatchReq
}

// route is where a partition's messages go: its head, under the epoch
// that fences them.
type route struct {
	part  int32
	addr  string
	epoch uint64
}

// remoteKey is what the coordinator knows about one key of the
// footprint beyond what core.Txn does. held: the key's server may hold
// something of the transaction's for it — it answered a read-lock
// request, or was sent a write-lock request, which also hands it a
// pending value — so a release must reach it. locked is what the servers
// granted: the read locks, until a write-lock request is answered
// (wlocked) — from then on the write locks, which are all the commit
// step asks of a written key.
type remoteKey struct {
	part          int32
	held, wlocked bool
	locked        timestamp.Set
}

// errStaleRoute marks a request rejected by the epoch fence before it
// reached any decision point: provably not acted on, so the coordinator
// may abort cleanly instead of reporting an uncertain outcome.
var errStaleRoute = errors.New("stale route: wrong epoch")

// remoteDeadlock is a server's report that the request lost a deadlock:
// the server's rendering of a lock.ErrDeadlock, and matched as one.
type remoteDeadlock string

func (e remoteDeadlock) Error() string        { return string(e) }
func (e remoteDeadlock) Is(target error) bool { return target == lock.ErrDeadlock }

// remote is the remote backend (Alg. 11): it carries out core.Txn's
// steps by messages to the storage servers. It is one value per Client,
// as core.DB is one per store: what it knows of a transaction beyond the
// footprint is the transaction's txnState, which rides its scratch.
type remote struct{ c *Client }

var _ core.Backend = remote{}

// txnState is the remote backend's working state for one transaction.
// It lives in the transaction's pooled scratch (core.Scratch.Backend):
// taken at the first step, handed back when the transaction finishes,
// and started over by the next transaction that finds it there (see
// remote.step). What it keeps from one transaction to the next is the
// storage its slices have grown, no caller's value to write — a
// write-lock fan-out clears its items, and every settle the read
// results — and, in vals, the region its last transaction's values were
// lent from.
type txnState struct {
	// id is the transaction the state was last set up for. A step of any
	// other transaction starts it over: ids are never reused by one
	// client, where a finished Txn's memory may be.
	id uint64

	// keys is aligned with the footprint (sync grows it). routes pins
	// each partition's (head, epoch) at first use, sorted by partition —
	// the order every per-server fan-out (lock batches, freeze and
	// tail casts) goes out in. decision is the decision server's pinned
	// route (§H.1); its addr is "" until a write establishes it.
	keys     []remoteKey
	routes   []routeBatch
	decision route

	// Scratch shared by the per-server batches (see stage): the positions
	// a tail covers, the keys of the batch in hand, the read path's
	// results between fan-out and settle, a write-lock fan-out's items
	// and decoded answers, and a committed release's read ranges. req
	// backs the requests the tail sends one at a time, so they too are
	// encoded in place rather than boxed.
	held    []int32
	names   []string
	results []wire.ReadLockResult
	items   []wire.WriteLockItem
	answers []wire.WriteLockResult
	reads   []wire.FreezeReadItem
	req     struct {
		decide  wire.DecideReq
		release wire.ReleaseBatchReq
	}

	// vals is the region read values are carved from (see carve). Its
	// length is what the transaction has been lent. A value is the
	// transaction's until it ends (kv.Txn), so vals is rewound only when
	// the state is started over for the next one.
	vals []byte
}

// valChunk is the size of a fresh region of read values: the largest
// small size class, so it is not rounded up to whole pages. A region
// that outgrew it is dropped at rewind, so a pooled scratch never pins
// more.
const valChunk = 32 << 10

// carve returns the transaction's copy of a value read: nil (⊥) stays
// nil, and anything else, even empty, is a non-nil slice of st.vals with
// its capacity capped at its length, so an append by the caller
// reallocates instead of writing over the next value. A region without
// room for v grows by append; the values carved before stay where they
// are, in the old array.
func (st *txnState) carve(v []byte) []byte {
	if v == nil {
		return nil
	}
	if st.vals == nil {
		st.vals = make([]byte, 0, valChunk)
	}
	n := len(st.vals)
	st.vals = append(st.vals, v...)
	return st.vals[n:len(st.vals):len(st.vals)]
}

// remoteStep is one backend step's view of its transaction: the client
// it runs on, the Txn, and the Txn's state.
type remoteStep struct {
	c  *Client
	tx *core.Txn
	*txnState
}

// step returns tx's view for one backend step. The state comes from
// tx's scratch, and is started over when it was last set up for another
// transaction.
func (b remote) step(tx *core.Txn) remoteStep {
	sc := tx.Scratch()
	st, ok := sc.Backend.(*txnState)
	if !ok {
		st = new(txnState)
		sc.Backend = st
	}
	if st.id != tx.ID() {
		st.id, st.keys, st.routes, st.decision = tx.ID(), st.keys[:0], st.routes[:0], route{}
		// The last transaction has ended, and with it the loan of its
		// values.
		if st.vals = st.vals[:0]; cap(st.vals) > valChunk {
			st.vals = nil
		}
	}
	return remoteStep{c: b.c, tx: tx, txnState: st}
}

// Begin implements kv.DB: the transaction is a *core.Txn of the client's
// engine, over the client's remote backend — the Txn is all it
// allocates.
func (c *Client) Begin(ctx context.Context) (kv.Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Transaction ids are globally unique: client id in the high bits.
	return c.engine.Begin(uint64(uint32(c.cfg.ID))<<32 | uint64(c.nextSq.Add(1))), nil
}

// sync extends keys to the footprint, placing each new key.
func (rt remoteStep) sync() {
	for i := len(rt.keys); i < rt.tx.Len(); i++ {
		rt.keys = append(rt.keys, remoteKey{part: int32(rt.c.partitionFor(rt.tx.KeyName(int32(i))))})
	}
}

// pin returns the position in rt.routes of partition p's route, pinning
// the client's current route on first use. A new pin shifts the routes
// after it: positions and pointers are good only until the next one.
func (rt remoteStep) pin(p int32) int {
	i := 0
	for ; i < len(rt.routes) && rt.routes[i].part <= p; i++ {
		if rt.routes[i].part == p {
			return i
		}
	}
	addr, epoch := rt.c.routeFor(int(p))
	rt.routes = append(rt.routes, routeBatch{})
	copy(rt.routes[i+1:], rt.routes[i:])
	rt.routes[i] = routeBatch{route: route{part: p, addr: addr, epoch: epoch}}
	return i
}

// stage prepares a per-server batch over the footprint positions idx: it
// sorts idx by partition (stably, so each server's share keeps the
// caller's order), pins their routes, and lays their keys out in
// rt.names, aligned with idx — partition r's share is [r.lo, r.hi) of
// both.
func (rt remoteStep) stage(idx []int32) {
	rt.sync()
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(rt.keys[a].part, rt.keys[b].part) })
	rt.names = rt.names[:0]
	for _, fi := range idx {
		rt.pin(rt.keys[fi].part)
		rt.names = append(rt.names, rt.tx.KeyName(fi))
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

// fanOut exchanges every staged route's request (r.msg, encoded
// straight into a pooled frame by the RPC layer) and parks each settled
// result — the pooled response frame, owned by the route until settle,
// or the error — on its route. It sends every request first and then
// waits for the replies in route order, all on the calling goroutine:
// the servers work in parallel, and a batch over N servers costs no
// goroutine, join or closure, as a one-server batch does. The requests
// leave together, so one CallTimeout bounds the whole exchange, and a
// request that may park server-side (wait) keeps the deadlock detector
// running until the last reply is in. Decoding, folding and settle stay
// with the caller.
func (rt remoteStep) fanOut(ctx context.Context, t wire.MsgType, wait bool) {
	c := rt.c
	if wait {
		c.det.enter()
		defer c.det.exit()
	}
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	for i := range rt.routes {
		if r := &rt.routes[i]; r.msg != nil {
			r.call, r.err = c.conn(r.addr).Start(rt.tx.ID(), t, r.msg)
		}
	}
	for i := range rt.routes {
		if r := &rt.routes[i]; r.msg != nil && r.err == nil {
			f, err := r.call.Wait(ctx)
			r.fb, r.err = f, err // the route owns the frame until settle
		}
	}
}

// checkBatch turns one route's decoded batch response into r.err (left
// alone when the exchange or the decode already failed): the request
// must have been accepted, under the pinned epoch, with one result per
// key.
func checkBatch(r *routeBatch, what string, status wire.Status, errStr string, results int) {
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
}

// settle ends a fan-out: it releases every response frame still parked
// on a route, unstages the routes, and drops the read results, whose
// values were views into those frames.
func (rt remoteStep) settle() {
	clear(rt.results)
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.fb != nil {
			r.fb.Release()
		}
		r.msg, r.call, r.fb, r.err = nil, rpc.Pending{}, nil, nil
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
// read step. Values are copied out of the response frames (carve) and
// lent to the transaction under kv.Txn's rule: valid until it ends, not
// to be modified. nil means ⊥.
func (b remote) ReadLocks(ctx context.Context, tx *core.Txn, keys []int32, upper timestamp.Timestamp, wait bool, out []core.ReadResult) error {
	rt := b.step(tx)
	// stage orders keys by server; names, results and out are all
	// aligned with it from here on.
	rt.stage(keys)
	if n := len(keys); cap(rt.results) < n {
		rt.results = make([]wire.ReadLockResult, n)
	}
	results := rt.results[:len(keys)]
	for i := range rt.routes {
		if r := &rt.routes[i]; r.hi > r.lo {
			r.read = wire.ReadLockBatchReq{Txn: tx.ID(), Epoch: r.epoch, Upper: upper, Wait: wait, Keys: rt.names[r.lo:r.hi]}
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
		checkBatch(r, "read", resp.Status, resp.Err, len(resp.Results))
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
		// transaction's copy outlives it.
		out[i].Version = version.Version{TS: res.VersionTS, Value: rt.carve(res.Value)}
		out[i].Got = res.Got
	}
	return nil
}

// WriteLocks implements core.Backend (Alg. 11 lines 3-9), establishing
// the decision server on first use (§H.1: the first server reached by a
// write): one batch request per server, sent together, so W writes cost
// one round trip to each server that holds any of them. The servers
// always grant what they can: an all-or-nothing request (opts.Partial
// unset) is one whose partial grant counts as a denial.
func (b remote) WriteLocks(ctx context.Context, tx *core.Txn, keys []int32, set timestamp.Set, opts lock.Options, out []lock.WriteResult) error {
	rt := b.step(tx)
	rt.sync()
	if rt.decision.addr == "" {
		rt.decision = rt.routes[rt.pin(rt.keys[keys[0]].part)].route
	}
	rt.stage(keys)
	// The items carry the caller's values, which the pooled state must
	// not keep alive once the answers are in.
	defer func() { clear(rt.items); clear(rt.answers) }()
	rt.items = rt.items[:0]
	for i, fi := range keys {
		value, _ := tx.WriteOf(fi)
		rt.items = append(rt.items, wire.WriteLockItem{Key: rt.names[i], Set: set, Value: value})
		// Whatever becomes of the answer, the request may reach the
		// server and leave a lock and a pending value there.
		rt.keys[fi].held = true
	}
	for i := range rt.routes {
		if r := &rt.routes[i]; r.hi > r.lo {
			r.write = wire.WriteLockBatchReq{Txn: tx.ID(), Epoch: r.epoch, DecisionSrv: rt.decision.addr, Wait: opts.Wait, Items: rt.items[r.lo:r.hi]}
			r.msg = &r.write
		}
	}
	rt.fanOut(ctx, wire.TWriteLockBatchReq, opts.Wait)
	defer rt.settle()

	// Acquired sets are recorded for every key of every batch that
	// settled; the first denial or transport failure is returned.
	rt.answers = slices.Grow(rt.answers[:0], len(keys))[:len(keys)]
	var firstErr error
	var resp wire.WriteLockBatchResp
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.msg == nil {
			continue
		}
		if r.err == nil {
			// Decode straight into the server's share of the answers, as
			// the read path does; nothing is borrowed from the frame.
			resp.Results = rt.answers[r.lo:r.lo:r.hi]
			r.err = resp.DecodeInto(r.fb.Body())
		}
		checkBatch(r, "write-lock", resp.Status, resp.Err, len(resp.Results))
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
func (rt remoteStep) granted(n int, fi int32, res wire.WriteLockResult, opts lock.Options, out *lock.WriteResult) error {
	if res.Status != wire.StatusOK {
		return denied(n, rt.tx.KeyName(fi), res.Status, res.Err)
	}
	k := &rt.keys[fi]
	if !k.wlocked {
		k.wlocked, k.locked = true, timestamp.Set{}
	}
	k.locked = k.locked.Union(res.Got)
	out.Got, out.Denied = res.Got, res.Denied
	if !opts.Partial && !res.Denied.IsEmpty() {
		return core.KeyErr(n, rt.tx.KeyName(fi), fmt.Errorf("write-lock %v denied at %v", out.Got.Union(out.Denied), res.Denied))
	}
	return nil
}

// Candidates implements core.Backend from the servers' grants (Alg. 11
// line 17).
func (b remote) Candidates(tx *core.Txn, t *timestamp.ShrinkingSet) {
	rt := b.step(tx)
	rt.sync()
	for i := range rt.keys {
		k := &rt.keys[i]
		_, read := tx.ReadOf(int32(i))
		_, written := tx.WriteOf(int32(i))
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
func (rt remoteStep) decides(r *routeBatch) bool {
	return rt.decision.addr != "" && r.part == rt.decision.part
}

// propose puts commit at ts to the transaction's commitment object (Alg.
// 11 line 23) and reports what was decided. Under garbage collection
// the proposal carries the decision server's share of the staged tail —
// the decision installs and freezes the writes there in any case
// (server.endTxn).
func (rt remoteStep) propose(ctx context.Context, ts timestamp.Timestamp, gc bool) (core.Outcome, error) {
	srv := rt.decision.addr
	rt.req.decide = wire.DecideReq{Txn: rt.tx.ID(), Epoch: rt.decision.epoch, Proposal: wire.DecideCommit, TS: ts}
	if gc {
		r := &rt.routes[rt.pin(rt.decision.part)]
		rt.req.decide.Keys, rt.req.decide.Reads = rt.names[r.lo:r.hi], rt.freezeReads(r, ts)
	}
	var resp wire.DecideResp
	f, err := rt.c.call(ctx, srv, rt.tx.ID(), wire.TDecideReq, &rt.req.decide)
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
// every key a server may hold something for, or when writesOnly is set
// only over the written ones among them. A write that never left the
// coordinator's buffer is owed nobody anything.
func (rt remoteStep) stageTail(writesOnly bool) {
	rt.sync()
	rt.held = rt.held[:0]
	for i := range rt.keys {
		if _, written := rt.tx.WriteOf(int32(i)); rt.keys[i].held && (written || !writesOnly) {
			rt.held = append(rt.held, int32(i))
		}
	}
	rt.stage(rt.held)
}

// freezeReads lists the read-lock ranges a commit at ts freezes on r's
// staged keys: from just above each version read up to ts.
func (rt remoteStep) freezeReads(r *routeBatch, ts timestamp.Timestamp) []wire.FreezeReadItem {
	rt.reads = rt.reads[:0]
	for _, fi := range rt.held[r.lo:r.hi] {
		if ver, read := rt.tx.ReadOf(fi); read && ver.Before(ts) {
			rt.reads = append(rt.reads, wire.FreezeReadItem{Key: rt.tx.KeyName(fi), Lo: ver.Next(), Hi: ts})
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
// drop the rest); without, a committed release naming no keys, which
// installs and freezes the server's pending writes and drops nothing,
// and the servers that hold only read locks are sent nothing. A
// transaction that never asked for a write lock has no decision server;
// its outcome is decided locally (nothing is pending anywhere).
func (b remote) Commit(ctx context.Context, tx *core.Txn, ts timestamp.Timestamp, gc bool) (core.Outcome, error) {
	rt := b.step(tx)
	rt.stageTail(!gc)
	if rt.decision.addr != "" {
		if outcome, err := rt.propose(ctx, ts, gc); outcome != core.Committed {
			return outcome, err
		}
	}
	// A cast that fails changes nothing about the outcome: the decision
	// is durable, and a server the cast never reaches finishes the
	// transaction through its timeout path. Reporting the failure would
	// make a committed transaction look aborted, and a caller that
	// retries it would apply its writes twice.
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.hi == r.lo || rt.decides(r) {
			continue
		}
		rt.req.release = wire.ReleaseBatchReq{Txn: tx.ID(), Epoch: r.epoch, Committed: true, TS: ts}
		if gc {
			rt.req.release.Keys, rt.req.release.Reads = rt.names[r.lo:r.hi], rt.freezeReads(r, ts)
		}
		_ = rt.c.cast(r.addr, tx.ID(), wire.TReleaseBatchReq, &rt.req.release)
	}
	return core.Committed, nil
}

// Abort implements core.Backend: it proposes abort to the commitment
// object and releases every key a server may hold locks or a pending
// write for, one message per server — the proposal, which carries the
// decision server's release, and a release batch to each of the others
// — all fire-and-forget (Alg. 11 line 34). Failures do not matter: only the
// coordinator proposes commit, so an aborting coordinator's outcome can
// only be abort and dropping pending writes is correct, and servers left
// holding locks suspect the coordinator and clean up on their own (Lemma
// 4). The proposal goes out unfenced (epoch 0), as releases are: a
// demoted head must drain the transactions it was left with. Before its
// write set is sent, a transaction has no decision server and no server
// has heard of its writes: it proposes nothing and releases only its
// reads.
func (b remote) Abort(_ context.Context, tx *core.Txn, writesOnly bool) {
	rt := b.step(tx)
	rt.stageTail(false)
	if rt.decision.addr != "" {
		r := &rt.routes[rt.pin(rt.decision.part)]
		rt.req.decide = wire.DecideReq{Txn: tx.ID(), Proposal: wire.DecideAbort, WritesOnly: writesOnly, Keys: rt.names[r.lo:r.hi]}
		_ = rt.c.cast(r.addr, tx.ID(), wire.TDecideReq, &rt.req.decide)
	}
	rt.req.release = wire.ReleaseBatchReq{Txn: tx.ID(), WritesOnly: writesOnly}
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.hi == r.lo || rt.decides(r) {
			continue
		}
		rt.req.release.Epoch, rt.req.release.Keys = r.epoch, rt.names[r.lo:r.hi]
		// Nothing waits on a release, so a failed send has nobody to
		// report to; the next message to the server redials.
		_ = rt.c.cast(r.addr, tx.ID(), wire.TReleaseBatchReq, &rt.req.release)
	}
}
