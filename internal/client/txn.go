package client

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// txnRoute is a transaction's pinned route for one partition: every
// message the transaction sends the partition goes to this head under
// this epoch, even if a failover happens mid-flight (the stale pin is
// fenced server-side; the transaction aborts and the retry re-routes).
type txnRoute struct {
	part  int32
	addr  string
	epoch uint64
}

// routeBatch is a pinned route plus its partition's share of the
// per-server batch in flight: keys tx.keys[lo:hi], the staged request
// msg (nil when the partition has no share), and the settled exchange
// fb/err. read backs msg on the read path, so a read-lock request is
// encoded from memory the transaction owns instead of boxed per call.
type routeBatch struct {
	txnRoute
	lo, hi int
	msg    wire.Message
	fb     *wire.FrameBuf
	err    error
	read   wire.ReadLockBatchReq
}

// footEntry is everything the coordinator knows about one key of the
// footprint. read: a server granted read locks readLocked, and readVer
// is the version the (last) read returned. written: value is the
// buffered write, under write locks writeLocked (which timestamp
// ordering acquires only at commit).
type footEntry struct {
	key           string
	part          int32
	read, written bool
	readVer       timestamp.Timestamp
	readLocked    timestamp.Set
	value         []byte
	writeLocked   timestamp.Set
}

// A transaction within the inline capacities keeps all its bookkeeping
// in its one allocation; a larger one (the 100-key preload) spills to
// the heap and, past footIndexAt keys, finds keys through an index.
const (
	footInline  = 8
	routeInline = 3
	footIndexAt = 32
)

// errStaleRoute marks a request rejected by the epoch fence before it
// reached any decision point: provably not acted on, so the coordinator
// may abort cleanly instead of reporting an uncertain outcome.
var errStaleRoute = errors.New("stale route: wrong epoch")

// DTxn is one distributed transaction (Alg. 11). Not safe for concurrent
// use by multiple goroutines.
type DTxn struct {
	client *Client
	id     uint64

	// interval is MVTIL's shrinking set I.
	interval timestamp.Set
	// ts is the fixed timestamp in TO mode.
	ts timestamp.Timestamp

	// foot is the footprint: one entry per key, in order of first use.
	// writeOrder lists the written entries in order of first write;
	// index finds a key's entry once foot outgrows a linear scan.
	foot       []footEntry
	writeOrder []int32
	index      map[string]int32

	// routes pins each partition's (head, epoch) at first use, sorted by
	// partition — the order every per-server fan-out (lock batches,
	// freeze and release casts) goes out in. decision is the decision
	// server's route (§H.1); its addr is "" until a write establishes it.
	routes   []routeBatch
	decision txnRoute

	// Scratch shared by the per-server batches (see stage): the entries
	// of the batch in hand, their keys, the read path's results between
	// fan-out and settle, and a freeze batch's read ranges.
	staged  []int32
	keys    []string
	results []wire.ReadLockResult
	reads   []wire.FreezeReadItem
	// req backs the requests the calling goroutine sends one at a time,
	// so they too are encoded in place rather than boxed.
	req struct {
		write   wire.WriteLockReq
		decide  wire.DecideReq
		freeze  wire.FreezeBatchReq
		release wire.ReleaseBatchReq
	}

	footBuf   [footInline]footEntry
	orderBuf  [footInline]int32
	stagedBuf [footInline]int32
	keyBuf    [footInline]string
	routeBuf  [routeInline]routeBatch

	done      bool
	committed bool

	// CommitTS is the serialization timestamp after a successful commit.
	CommitTS timestamp.Timestamp
	// RestartHint suggests a clock value for a retry (set on aborts
	// caused by frozen conflicts).
	RestartHint int64
}

var _ kv.Txn = (*DTxn)(nil)

// newDTxn returns a transaction whose slices start on its inline arrays.
func newDTxn(c *Client, id uint64) *DTxn {
	tx := &DTxn{client: c, id: id}
	tx.foot = tx.footBuf[:0]
	tx.writeOrder = tx.orderBuf[:0]
	tx.staged = tx.stagedBuf[:0]
	tx.keys = tx.keyBuf[:0]
	tx.routes = tx.routeBuf[:0]
	return tx
}

// ID implements kv.Txn.
func (tx *DTxn) ID() uint64 { return tx.id }

// entry returns the position of key's footprint entry, adding a blank
// one at the end on first mention.
func (tx *DTxn) entry(key string) int {
	if tx.index != nil {
		if i, ok := tx.index[key]; ok {
			return int(i)
		}
	} else {
		for i := range tx.foot {
			if tx.foot[i].key == key {
				return i
			}
		}
	}
	tx.foot = append(tx.foot, footEntry{key: key, part: int32(tx.client.partitionFor(key))})
	switch {
	case tx.index != nil:
		tx.index[key] = int32(len(tx.foot) - 1)
	case len(tx.foot) > footIndexAt:
		tx.index = make(map[string]int32, 2*len(tx.foot))
		for i := range tx.foot {
			tx.index[tx.foot[i].key] = int32(i)
		}
	}
	return len(tx.foot) - 1
}

// pin returns the position in tx.routes of partition p's route, pinning
// the client's current route on first use. A new pin shifts the routes
// after it: positions and pointers are good only until the next one.
func (tx *DTxn) pin(p int32) int {
	i := 0
	for ; i < len(tx.routes) && tx.routes[i].part <= p; i++ {
		if tx.routes[i].part == p {
			return i
		}
	}
	addr, epoch := tx.client.routeFor(int(p))
	tx.routes = append(tx.routes, routeBatch{})
	copy(tx.routes[i+1:], tx.routes[i:])
	tx.routes[i] = routeBatch{txnRoute: txnRoute{part: p, addr: addr, epoch: epoch}}
	return i
}

// Committed reports whether Commit succeeded.
func (tx *DTxn) Committed() bool { return tx.committed }

// abortErr marks the transaction aborted, performs distributed cleanup,
// and wraps the cause. Both errors stay in the chain, so callers can
// test errors.Is(err, kv.ErrAborted) as before and additionally
// errors.Is(err, kv.ErrDeadlock) to pick a retry policy.
func (tx *DTxn) abortErr(ctx context.Context, cause error) error {
	tx.abort(ctx)
	return fmt.Errorf("%w (%w)", kv.ErrAborted, cause)
}

// record hands the transaction's footprint to the history recorder,
// when there is one: as a commit at commitTS, or as a "maybe" the
// checker resolves from observation.
func (tx *DTxn) record(commitTS timestamp.Timestamp, maybe bool) {
	rec := tx.client.cfg.Recorder
	if rec == nil {
		return
	}
	reads := make([]history.Read, 0, len(tx.foot))
	for i := range tx.foot {
		if e := &tx.foot[i]; e.read {
			reads = append(reads, history.Read{Key: e.key, VersionTS: e.readVer})
		}
	}
	writeKeys := make([]string, len(tx.writeOrder))
	for i, fi := range tx.writeOrder {
		writeKeys[i] = tx.foot[fi].key
	}
	rec.Record(history.Commit{ID: tx.id, CommitTS: commitTS, Reads: reads, WriteKeys: writeKeys, Maybe: maybe})
}

// uncertainErr finishes the transaction in the unknown state: the
// commit proposal departed but its outcome never came back, so the
// commitment object may have decided commit — reporting an abort here
// would be a lie the fault bed is built to catch. No locks are
// released and no abort is proposed (either could fight a decided
// commit); the servers' suspicion path resolves the outcome through
// the commitment object and cleans up either way (Lemma 4). The
// recorder, when present, is told the commit is a "maybe" at commitTS
// so the checker can resolve it from observation.
func (tx *DTxn) uncertainErr(commitTS timestamp.Timestamp, cause error) error {
	tx.done = true
	tx.CommitTS = commitTS
	tx.record(commitTS, true)
	return fmt.Errorf("%w (%w)", kv.ErrUncertain, cause)
}

// Read implements kv.Txn (Alg. 11 lines 10-14): a batch of one key
// through the read path GetMulti uses — one read path, two entry
// points.
func (tx *DTxn) Read(ctx context.Context, key string) ([]byte, error) {
	if tx.done {
		return nil, kv.ErrTxnDone
	}
	fi := tx.entry(key)
	if e := &tx.foot[fi]; e.written {
		return e.value, nil
	}
	tx.staged = append(tx.staged[:0], int32(fi))
	var val [1][]byte
	if err := tx.readStaged(ctx, val[:]); err != nil {
		return nil, err
	}
	return val[0], nil
}

// GetMulti implements kv.MultiGetter: it reads a static set of keys,
// grouping them by owning server and issuing one batched read-lock
// request per server in parallel, so an R-key read set costs O(servers)
// round trips instead of O(R) — mirroring the write-side batching of
// Commit. Duplicate keys are read once; keys the transaction has
// written are served from the write buffer. The returned map has one
// entry per distinct key (a nil value means ⊥). Any per-key failure
// aborts the transaction, as a failed Read would.
//
// The whole batch is requested under the transaction's upper bound at
// call time: under MVTIL a batched read may pick a newer version than a
// sequential Read loop (whose interval shrinks between reads) and abort
// where the loop would have settled for an older version — retry as
// with any abort.
func (tx *DTxn) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if tx.done {
		return nil, kv.ErrTxnDone
	}
	out := make(map[string][]byte, len(keys))
	tx.staged = tx.staged[:0]
	for _, k := range keys {
		if _, dup := out[k]; dup {
			continue
		}
		fi := tx.entry(k)
		if e := &tx.foot[fi]; e.written {
			out[k] = e.value
			continue
		}
		out[k] = nil // claims the key; filled below
		tx.staged = append(tx.staged, int32(fi))
	}
	if len(tx.staged) == 0 {
		return out, nil
	}
	vals := make([][]byte, len(tx.staged))
	if err := tx.readStaged(ctx, vals); err != nil {
		return nil, err
	}
	for i, fi := range tx.staged {
		out[tx.foot[fi].key] = vals[i]
	}
	return out, nil
}

// readStaged is the read path shared by Read and GetMulti: it
// read-locks the staged entries' keys, one batch per server, and
// stores each key's value (an owned copy; nil means ⊥) in vals, which
// is aligned with tx.staged.
func (tx *DTxn) readStaged(ctx context.Context, vals [][]byte) error {
	mode := tx.client.cfg.Mode
	til := mode == ModeTILEarly || mode == ModeTILLate
	var upper timestamp.Timestamp
	wait := false
	switch mode {
	case ModeTILEarly, ModeTILLate:
		m, ok := tx.interval.Max()
		if !ok {
			return tx.abortErr(ctx, fmt.Errorf("mvtil: interval exhausted"))
		}
		upper = m
	case ModeTO:
		upper, wait = tx.ts, true
	case ModePessimistic:
		upper, wait = timestamp.Infinity, true
	}

	// stage orders tx.staged by server; keys, results and vals are all
	// aligned with it from here on.
	tx.stage(tx.staged)
	if n := len(tx.staged); cap(tx.results) < n {
		tx.results = make([]wire.ReadLockResult, n)
	}
	results := tx.results[:len(tx.staged)]
	for i := range tx.routes {
		if r := &tx.routes[i]; r.hi > r.lo {
			r.read = wire.ReadLockBatchReq{Txn: tx.id, Epoch: r.epoch, Upper: upper, Wait: wait, Keys: tx.keys[r.lo:r.hi]}
			r.msg = &r.read
		}
	}
	tx.fanOut(ctx, wire.TReadLockBatchReq, wait)
	// Decoded read results borrow their Value views from the response
	// frames, so the pooled buffers stay alive until the folds below
	// have copied every escaping value out.
	defer tx.settle()

	var firstErr error
	var resp wire.ReadLockBatchResp
	for i := range tx.routes {
		r := &tx.routes[i]
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
		tx.checkBatch(r, "read", resp.Status, resp.Err, len(resp.Results), resp.Edges)
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			clear(results[r.lo:r.hi]) // no status: nothing was granted
		}
	}
	// Record every acquired lock before acting on any failure: the
	// abort path releases what the footprint says is locked, so a key
	// locked on a healthy server must be marked even when a sibling
	// batch failed or an earlier key in the fold below aborts the
	// transaction — otherwise its read locks would linger server-side
	// until purge.
	for i, fi := range tx.staged {
		if res := &results[i]; res.Status == wire.StatusOK {
			e := &tx.foot[fi]
			e.read = true
			e.readLocked = e.readLocked.Add(res.Got)
		}
	}
	if firstErr != nil {
		return tx.abortErr(ctx, firstErr)
	}

	// Fold per-key results in staged order (by server, then the caller's
	// key order), so interval narrowing and the reported abort cause are
	// deterministic.
	for i, fi := range tx.staged {
		res, e := &results[i], &tx.foot[fi]
		if res.Status != wire.StatusOK {
			if res.Status == wire.StatusDeadlock {
				return tx.abortErr(ctx, fmt.Errorf("read %q: %w: %s", e.key, kv.ErrDeadlock, res.Err))
			}
			return tx.abortErr(ctx, fmt.Errorf("read %q: %s", e.key, res.Err))
		}
		e.readVer = res.VersionTS
		// res.Value is a borrowed view of a pooled response frame; the
		// caller's copy outlives it (bytes.Clone keeps nil nil, so ⊥
		// round-trips).
		vals[i] = bytes.Clone(res.Value)
		if til {
			if res.Got.IsEmpty() {
				return tx.abortErr(ctx, fmt.Errorf("mvtil: read of %q locked nothing", e.key))
			}
			tx.interval = tx.interval.IntersectInterval(timestamp.Span(res.VersionTS.Next(), res.Got.Hi))
			if tx.interval.IsEmpty() {
				return tx.abortErr(ctx, fmt.Errorf("mvtil: read of %q emptied the interval", e.key))
			}
		}
	}
	return nil
}

// Write implements kv.Txn (Alg. 11 lines 3-9).
func (tx *DTxn) Write(ctx context.Context, key string, value []byte) error {
	if tx.done {
		return kv.ErrTxnDone
	}
	mode := tx.client.cfg.Mode
	fi := tx.entry(key)
	if mode == ModeTO {
		// Timestamp ordering locks the write set only at commit.
		tx.bufferWrite(fi, value)
		return nil
	}

	var req timestamp.Set
	wait := false
	switch mode {
	case ModeTILEarly, ModeTILLate:
		if tx.interval.IsEmpty() {
			return tx.abortErr(ctx, fmt.Errorf("mvtil: interval exhausted"))
		}
		req = tx.interval
	case ModePessimistic:
		req = timestamp.NewSet(timestamp.Span(timestamp.Zero.Next(), timestamp.Infinity))
		wait = true
	}
	resp, err := tx.writeLock(ctx, key, tx.foot[fi].part, req, wait, value)
	if err != nil {
		return tx.abortErr(ctx, err)
	}
	tx.bufferWrite(fi, value)
	e := &tx.foot[fi]
	e.writeLocked = e.writeLocked.Union(resp.Got)
	if mode == ModeTILEarly || mode == ModeTILLate {
		if max, ok := resp.Denied.Max(); ok && max.Time > tx.RestartHint {
			tx.RestartHint = max.Time
		}
		tx.interval = tx.interval.Intersect(resp.Got)
		if tx.interval.IsEmpty() {
			return tx.abortErr(ctx, fmt.Errorf("mvtil: write of %q emptied the interval", key))
		}
	}
	return nil
}

// writeLock sends one write-lock request for key to its partition,
// establishing the decision server on first use (§H.1: the first server
// reached by a write).
func (tx *DTxn) writeLock(ctx context.Context, key string, part int32, req timestamp.Set, wait bool, value []byte) (wire.WriteLockResp, error) {
	rt := tx.routes[tx.pin(part)].txnRoute
	if tx.decision.addr == "" {
		tx.decision = rt
	}
	tx.req.write = wire.WriteLockReq{
		Txn:         tx.id,
		Epoch:       rt.epoch,
		Key:         key,
		DecisionSrv: tx.decision.addr,
		Set:         req,
		Wait:        wait,
		Value:       value,
	}
	f, err := tx.client.callWaitable(ctx, rt.addr, tx.id, wire.TWriteLockReq, &tx.req.write, wait)
	if err != nil {
		return wire.WriteLockResp{}, err
	}
	resp, err := wire.DecodeWriteLockResp(f.Body())
	f.Release() // nothing borrowed: Sets and strings are owned copies
	if err != nil {
		return wire.WriteLockResp{}, err
	}
	if resp.Status != wire.StatusOK {
		if resp.Status == wire.StatusDeadlock {
			return resp, fmt.Errorf("write-lock %q: %w: %s", key, kv.ErrDeadlock, resp.Err)
		}
		if resp.Status == wire.StatusWrongEpoch {
			return resp, fmt.Errorf("write-lock %q: %s: %w", key, resp.Err, errStaleRoute)
		}
		return resp, fmt.Errorf("write-lock %q: %s", key, resp.Err)
	}
	return resp, nil
}

// bufferWrite makes value the buffered write of footprint entry fi.
func (tx *DTxn) bufferWrite(fi int, value []byte) {
	e := &tx.foot[fi]
	if !e.written {
		e.written = true
		tx.writeOrder = append(tx.writeOrder, int32(fi))
	}
	e.value = value
}

// stage prepares a per-server batch over the footprint entries idx: it
// sorts idx by partition (stably, so each server's share keeps the
// caller's order), pins their routes, and lays their keys out in
// tx.keys, aligned with idx — partition r's share is [r.lo, r.hi) of
// both.
func (tx *DTxn) stage(idx []int32) {
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(tx.foot[a].part, tx.foot[b].part) })
	tx.keys = tx.keys[:0]
	for _, fi := range idx {
		tx.pin(tx.foot[fi].part)
		tx.keys = append(tx.keys, tx.foot[fi].key)
	}
	k := 0
	for i := range tx.routes {
		r := &tx.routes[i]
		r.lo = k
		for k < len(idx) && tx.foot[idx[k]].part == r.part {
			k++
		}
		r.hi = k
	}
}

// exchange performs one staged route's request and parks the settled
// result — the pooled response frame, owned by the route until settle,
// or the transport error — on the route.
func (tx *DTxn) exchange(ctx context.Context, r *routeBatch, t wire.MsgType, wait bool) {
	f, err := tx.client.callWaitable(ctx, r.addr, tx.id, t, r.msg, wait)
	r.fb, r.err = f, err
}

// fanOut exchanges every staged route's request (r.msg, encoded
// straight into a pooled frame by the RPC layer) in parallel and
// returns once all have settled. The last staged route runs on the
// calling goroutine, so a batch that involves one server — every
// single-key Read — costs no goroutine, join or closure, and one over N
// servers costs N-1. Decoding, folding and settle stay with the caller.
func (tx *DTxn) fanOut(ctx context.Context, t wire.MsgType, wait bool) {
	var last *routeBatch
	var join *clock.Join
	for i := range tx.routes {
		r := &tx.routes[i]
		if r.msg == nil {
			continue
		}
		if last != nil {
			if join == nil {
				join = clock.NewJoin(tx.client.timers, 0)
			}
			join.Add(1)
			// Copies for the closure: capturing join itself would move it
			// to the heap on the one-server path too.
			child, j := last, join
			tx.client.timers.Go(func() {
				tx.exchange(ctx, child, t, wait)
				j.Done() // while this child is still a registered actor
			})
		}
		last = r
	}
	if last == nil {
		return
	}
	tx.exchange(ctx, last, t, wait)
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
func (tx *DTxn) checkBatch(r *routeBatch, what string, status wire.Status, errStr string, results int, edges []wire.WaitEdge) {
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
	if det := tx.client.det; det != nil {
		det.observe(r.addr, edges)
	}
}

// settle ends a fan-out: it releases every response frame still parked
// on a route, unstages the routes, and drops the read results, whose
// values were views into those frames.
func (tx *DTxn) settle() {
	clear(tx.results)
	for i := range tx.routes {
		r := &tx.routes[i]
		if r.fb != nil {
			r.fb.Release()
		}
		r.msg, r.fb, r.err = nil, nil, nil
	}
}

// writeLockBatches write-locks the transaction's whole write set at ts
// with one batch request per server, fanning out across servers in
// parallel: a W-write commit costs O(servers) round trips instead of
// O(W). Acquired sets are folded into the footprint; the first per-key
// denial or transport failure is returned after all batches settle.
func (tx *DTxn) writeLockBatches(ctx context.Context, ts timestamp.Timestamp) error {
	tx.staged = append(tx.staged[:0], tx.writeOrder...)
	tx.stage(tx.staged)
	at := timestamp.NewSet(timestamp.Point(ts))
	items := make([]wire.WriteLockItem, len(tx.staged))
	for i, fi := range tx.staged {
		e := &tx.foot[fi]
		items[i] = wire.WriteLockItem{Key: e.key, Set: at, Value: e.value}
	}
	for i := range tx.routes {
		if r := &tx.routes[i]; r.hi > r.lo {
			r.msg = wire.WriteLockBatchReq{Txn: tx.id, Epoch: r.epoch, DecisionSrv: tx.decision.addr, Items: items[r.lo:r.hi]}
		}
	}
	tx.fanOut(ctx, wire.TWriteLockBatchReq, false)
	defer tx.settle()

	var firstErr error
	for i := range tx.routes {
		r := &tx.routes[i]
		if r.msg == nil {
			continue
		}
		var resp wire.WriteLockBatchResp
		if r.err == nil {
			// nothing borrowed: Sets and strings are owned
			resp, r.err = wire.DecodeWriteLockBatchResp(r.fb.Body())
		}
		tx.checkBatch(r, "write-lock", resp.Status, resp.Err, len(resp.Results), resp.Edges)
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		for i, res := range resp.Results {
			e := &tx.foot[tx.staged[r.lo+i]]
			if res.Status != wire.StatusOK || !res.Got.Contains(ts) {
				if firstErr == nil {
					firstErr = fmt.Errorf("write-lock %q at %v denied: %s", e.key, ts, res.Err)
				}
				continue
			}
			e.writeLocked = e.writeLocked.Union(res.Got)
		}
	}
	return firstErr
}

// Commit implements kv.Txn (Alg. 11 lines 15-29).
func (tx *DTxn) Commit(ctx context.Context) error {
	if tx.done {
		return kv.ErrTxnDone
	}
	mode := tx.client.cfg.Mode

	// Commit-time locking: TO write-locks its timestamp on every
	// written key, without waiting (Alg. 8 via the wire protocol),
	// batched per server.
	if mode == ModeTO && len(tx.writeOrder) > 0 {
		if tx.decision.addr == "" {
			tx.decision = tx.routes[tx.pin(tx.foot[tx.writeOrder[0]].part)].txnRoute
		}
		if err := tx.writeLockBatches(ctx, tx.ts); err != nil {
			return tx.abortErr(ctx, err)
		}
	}

	// Find a commonly locked timestamp (Alg. 11 line 17): read keys
	// contribute their read locks, written keys — read first or not —
	// their write locks.
	candidates := timestamp.NewSet(timestamp.Full)
	for i := range tx.foot {
		switch e := &tx.foot[i]; {
		case e.written:
			candidates = candidates.Intersect(e.writeLocked)
		case e.read:
			candidates = candidates.Intersect(e.readLocked)
		}
	}
	if candidates.IsEmpty() {
		return tx.abortErr(ctx, fmt.Errorf("no commonly locked timestamp"))
	}

	var commitTS timestamp.Timestamp
	var ok bool
	switch mode {
	case ModeTILEarly:
		narrowed := candidates.Intersect(tx.interval)
		if !narrowed.IsEmpty() {
			candidates = narrowed
		}
		commitTS, ok = candidates.Min()
	case ModeTILLate:
		narrowed := candidates.Intersect(tx.interval)
		if !narrowed.IsEmpty() {
			candidates = narrowed
		}
		commitTS, ok = candidates.Max()
	case ModeTO:
		commitTS, ok = tx.ts, candidates.Contains(tx.ts)
	case ModePessimistic:
		commitTS, ok = candidates.At(candidates.NumIntervals()-1).Lo, true
	}
	if !ok {
		return tx.abortErr(ctx, fmt.Errorf("no usable commit timestamp in %v", candidates))
	}

	// Decide the outcome via the commitment object (Alg. 11 line 23).
	if len(tx.writeOrder) > 0 {
		d, err := tx.decide(ctx, wire.DecideCommit, commitTS)
		if err != nil {
			// A dial that never connected provably never delivered the
			// proposal, and an epoch fence provably rejected it before
			// the commitment object; only the coordinator proposes
			// commit, so in both cases the outcome can still only be
			// abort. Any other failure — timeout, reset, partition —
			// leaves the proposal possibly delivered and possibly
			// decided: the outcome is unknown.
			if errors.Is(err, transport.ErrUnavailable) || errors.Is(err, errStaleRoute) {
				return tx.abortErr(ctx, err)
			}
			return tx.uncertainErr(commitTS, err)
		}
		if d.Kind != wire.DecideCommit {
			return tx.abortErr(ctx, fmt.Errorf("commitment object decided abort"))
		}
	}
	tx.CommitTS = commitTS
	tx.committed = true
	tx.done = true
	tx.record(commitTS, false)

	// Inform the footprint's servers, one freeze batch per server (in
	// partition order) and without waiting for replies (Alg. 11 lines
	// 27-34; the decision is already durable at the commitment object,
	// and servers left waiting freeze through the timeout path): freeze
	// the write locks at the commit timestamp and expose the values, and
	// — except under timestamp ordering, which leaves its read locks
	// behind like MVTO+ read timestamps — freeze the read locks between
	// version read and commit timestamp. A release batch per server then
	// drops the remaining unfrozen locks (garbage collection).
	if mode != ModeTO && tx.reads == nil {
		tx.reads = make([]wire.FreezeReadItem, 0, len(tx.foot))
	}
	for i := range tx.routes {
		r := &tx.routes[i]
		tx.keys, tx.reads = tx.keys[:0], tx.reads[:0]
		for _, fi := range tx.writeOrder {
			if e := &tx.foot[fi]; e.part == r.part {
				tx.keys = append(tx.keys, e.key)
			}
		}
		if mode != ModeTO {
			for j := range tx.foot {
				e := &tx.foot[j]
				if !e.read || e.part != r.part {
					continue
				}
				if lo := e.readVer.Next(); !lo.After(commitTS) {
					tx.reads = append(tx.reads, wire.FreezeReadItem{Key: e.key, Lo: lo, Hi: commitTS})
				}
			}
		}
		if len(tx.keys) == 0 && len(tx.reads) == 0 {
			continue
		}
		tx.req.freeze = wire.FreezeBatchReq{Txn: tx.id, Epoch: r.epoch, TS: commitTS, WriteKeys: tx.keys, Reads: tx.reads}
		if err := tx.client.cast(r.addr, tx.id, wire.TFreezeBatchReq, &tx.req.freeze); err != nil {
			return fmt.Errorf("client: freeze batch via %s: %w", r.addr, err)
		}
	}
	if mode != ModeTO {
		tx.releaseCommitted(commitTS)
	}
	return nil
}

// Abort implements kv.Txn.
func (tx *DTxn) Abort(ctx context.Context) error {
	if tx.done {
		return nil
	}
	tx.abort(ctx)
	return nil
}

// abort decides abort (when writes may be pending anywhere) and releases
// locks.
func (tx *DTxn) abort(ctx context.Context) {
	if tx.done {
		return
	}
	tx.done = true
	if tx.decision.addr != "" {
		// Ignore failures: servers will suspect us and clean up on
		// their own (Lemma 4).
		_, _ = tx.decide(ctx, wire.DecideAbort, timestamp.Timestamp{})
	}
	tx.releaseAll(tx.client.cfg.Mode == ModeTO)
}

// releaseAll drops the transaction's unfrozen locks on every key it
// locked or buffered a write for, one release batch per server,
// fire-and-forget (Alg. 11 line 34). Safe on the abort path even when
// the decide call failed: only the coordinator proposes commit, so an
// aborting coordinator's outcome can only be abort and dropping pending
// writes is correct.
func (tx *DTxn) releaseAll(writesOnly bool) {
	tx.req.release = wire.ReleaseBatchReq{Txn: tx.id, WritesOnly: writesOnly}
	tx.release()
}

// releaseCommitted is releaseAll for a decided-commit transaction: the
// batch carries the commit timestamp so a server whose freeze cast was
// lost installs the pending write instead of discarding it (the release
// subsumes the freeze — see wire.ReleaseBatchReq.Committed).
func (tx *DTxn) releaseCommitted(commitTS timestamp.Timestamp) {
	tx.req.release = wire.ReleaseBatchReq{Txn: tx.id, Committed: true, TS: commitTS}
	tx.release()
}

// release casts tx.req.release to every server holding a read or
// written key of the footprint, in partition order, each with its
// share of those keys.
func (tx *DTxn) release() {
	tx.staged = tx.staged[:0]
	for i := range tx.foot {
		if e := &tx.foot[i]; e.read || e.written {
			tx.staged = append(tx.staged, int32(i))
		}
	}
	tx.stage(tx.staged)
	for i := range tx.routes {
		r := &tx.routes[i]
		if r.hi == r.lo {
			continue
		}
		tx.req.release.Epoch, tx.req.release.Keys = r.epoch, tx.keys[r.lo:r.hi]
		// Nothing waits on a release, so a failed send has nobody to
		// report to; cast has already evicted the broken connection.
		_ = tx.client.cast(r.addr, tx.id, wire.TReleaseBatchReq, &tx.req.release)
	}
}

// decide proposes an outcome to the transaction's commitment object. A
// read-only transaction has no decision server; its outcome is decided
// locally (nothing is pending anywhere).
func (tx *DTxn) decide(ctx context.Context, kind wire.DecisionKind, ts timestamp.Timestamp) (wire.DecideResp, error) {
	srv := tx.decision.addr
	if srv == "" {
		return wire.DecideResp{Status: wire.StatusOK, Kind: kind, TS: ts}, nil
	}
	tx.req.decide = wire.DecideReq{Txn: tx.id, Epoch: tx.decision.epoch, Proposal: kind, TS: ts}
	f, err := tx.client.call(ctx, srv, tx.id, wire.TDecideReq, &tx.req.decide)
	if err != nil {
		return wire.DecideResp{}, err
	}
	resp, err := wire.DecodeDecideResp(f.Body())
	f.Release()
	if err != nil {
		return wire.DecideResp{}, err
	}
	if resp.Status == wire.StatusWrongEpoch {
		// The fence turned the proposal away before the commitment
		// object saw it: provably undecided.
		return wire.DecideResp{}, fmt.Errorf("decide %q: %s: %w", srv, resp.Err, errStaleRoute)
	}
	if resp.Status != wire.StatusOK {
		// A request-level failure is not a decision; treating it as one
		// would report "decided abort" for what was e.g. a codec error.
		return wire.DecideResp{}, fmt.Errorf("decide %q: %s", srv, resp.Err)
	}
	return resp, nil
}
