package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// clientResult is one client's outcome over one phase. Everything is
// allocated before the phase starts.
type clientResult struct {
	// lat holds begin→commit latencies of committed transactions, ns,
	// in completion order.
	lat []int64
	// committed[seq] records which attempts committed, for the
	// read-back check's replay.
	committed []bool
	commits   int
	aborts    int
	// failures counts non-abort errors (timeouts, kv.ErrUncertain…):
	// on these workloads no operation may fail, so any is fatal.
	failures int
	err      error
}

// cursor is one closed-loop client's place in its stream: the
// transaction it has open and the next call it will make. step makes
// exactly one call into the engine, so a client can run on a goroutine
// of its own or take turns with the others on one (spec.tickMicros). It
// allocates nothing per transaction, so the allocation metrics are the
// system's.
type cursor struct {
	e    *env
	ph   phase
	c    int
	sess session
	g    *gen
	r    *clientResult
	// seq is the attempt the cursor is in, or about to begin; the
	// stream ends at hi.
	seq, hi int
	// vals is where the client's values come from: the in-process store
	// keeps the slice a transaction writes, so there it is an arena
	// sized up front; the coordinators copy values onto the wire, so one
	// buffer serves.
	vals   []byte
	keybuf []string

	// ops is the open transaction's operations, nil between
	// transactions; next indexes the first one not yet issued.
	ops  []op
	next int
	val  []byte
	t0   int64
}

// step makes the client's next call: begin, one read, write or batched
// read, or commit. No retry of aborted transactions. It reports false
// once the stream is used up.
func (cu *cursor) step(ctx context.Context) bool {
	e := cu.e
	if cu.ops == nil {
		if cu.seq == cu.hi {
			return false
		}
		if e.s.tickMicros > 0 {
			e.ticks.Advance(e.s.tickMicros)
			if cu.c == 0 && cu.seq%e.s.purgeEvery == 0 {
				e.purge()
			}
		}
		size := e.s.valueSize
		cu.val = cu.vals[:size]
		if e.s.bed == bedLocal {
			cu.val = cu.vals[cu.seq*size : (cu.seq+1)*size]
		}
		binary.LittleEndian.PutUint64(cu.val, valueID(cu.ph, cu.c, cu.seq))
		cu.ops, cu.next = cu.g.next(), 0
		cu.t0 = e.now()
		if err := cu.sess.begin(ctx); err != nil {
			cu.finish(err)
		}
		return true
	}
	if cu.next == len(cu.ops) {
		cu.finish(cu.sess.commit(ctx))
		return true
	}
	var err error
	// With batchReads the leading reads go out as one getMulti: they
	// are known before the transaction starts.
	lead := 0
	if e.s.batchReads && cu.next == 0 {
		for lead < len(cu.ops) && !cu.ops[lead].write {
			lead++
		}
	}
	if lead > 1 {
		keys := cu.keybuf[:0]
		for _, o := range cu.ops[:lead] {
			keys = append(keys, e.keys[o.key])
		}
		err = cu.sess.getMulti(ctx, keys)
		cu.next = lead
	} else {
		o := cu.ops[cu.next]
		cu.next++
		if o.write {
			err = cu.sess.write(ctx, e.keys[o.key], cu.val)
		} else {
			_, err = cu.sess.read(ctx, e.keys[o.key])
		}
	}
	if err != nil {
		cu.sess.abort(ctx)
		cu.finish(err)
	}
	return true
}

// finish books the open transaction's outcome and closes it.
func (cu *cursor) finish(err error) {
	r := cu.r
	switch {
	case err == nil:
		r.commits++
		r.committed[cu.seq] = true
		r.lat = append(r.lat, cu.e.now()-cu.t0)
	case errors.Is(err, kv.ErrAborted):
		r.aborts++
	default:
		r.failures++
		if r.err == nil {
			r.err = fmt.Errorf("client %d attempt %d: %w", cu.c, cu.seq, err)
		}
	}
	cu.ops = nil
	cu.seq++
}

// drive runs perClient attempts on every client of the env and returns
// when all are done. Clients run on a goroutine each, or — with
// spec.tickMicros — take turns call by call on this one, so that which
// transactions overlap is decided by the seed and not by the scheduler.
func (e *env) drive(ph phase, perClient int) []clientResult {
	res := make([]clientResult, e.s.clients)
	cursors := make([]cursor, e.s.clients)
	for c := range cursors {
		res[c].lat = make([]int64, 0, perClient)
		res[c].committed = make([]bool, perClient)
		arena := e.s.valueSize
		if e.s.bed == bedLocal {
			arena *= perClient
		}
		cursors[c] = cursor{
			e: e, ph: ph, c: c, sess: e.sessions[c], g: newGen(e.s, e.seed, ph, c), r: &res[c], hi: perClient,
			vals: make([]byte, arena), keybuf: make([]string, 0, e.s.ops),
		}
	}
	ctx := context.Background()
	if e.s.tickMicros > 0 {
		for live := true; live; {
			live = false
			for c := range cursors {
				if cursors[c].step(ctx) {
					live = true
				}
			}
		}
		return res
	}
	e.parallel(e.s.clients, func(c int) {
		for cursors[c].step(ctx) {
		}
	})
	return res
}

// purge discards lock and version state older than the previous purge
// point, as the paper's timestamp service does (§8.1) — without it a
// hot key's interval list grows with the run and a fixed-work window
// mostly measures its own length. Only the tick-clock engine purges, so
// the horizon is a distance in attempts, whatever the machine's speed.
func (e *env) purge() {
	if e.purgeMark != 0 {
		e.engine.PurgeBelow(timestamp.New(e.purgeMark, 0))
	}
	e.purgeMark = e.ticks.Now()
}
