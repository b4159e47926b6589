package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// spanKind names a boundary the harness can see from outside the
// program: the transaction, each call into the engine, and each frame
// crossing the client's transport.
type spanKind uint8

const (
	spanTxn spanKind = iota
	spanBegin
	spanRead
	spanWrite
	spanGetMulti
	spanCommit
	// spanSend is one Send/SendBatch call on a client connection, one
	// span per frame it carried.
	spanSend
	// spanRecv runs from the end of the send that carried a request to
	// the Recv that returned its reply: wire both ways plus the server.
	spanRecv
	spanKinds
)

var spanNames = [spanKinds]string{"txn", "begin", "read", "write", "getmulti", "commit", "transport.send", "transport.recv"}

// span is one recorded interval on the bed's clock. Spans of one
// transaction share txn; parent is the span that caused this one (0 for
// a transaction).
type span struct {
	id, parent uint32
	txn        uint64
	kind       spanKind
	start, end int64
}

// maxSpansKept bounds the spans written to disk; the statistics use
// every span. A traced tcp-point pass records about a million.
const maxSpansKept = 200_000

// interval is a child span's extent, kept to compute its parent's self
// time.
type interval struct{ start, end int64 }

// openOp is the engine call a client currently has in flight. Frames
// leaving while it is open are its children.
type openOp struct {
	id    uint32
	calls int
	kids  []interval
}

// tracer records spans in memory and aggregates them per kind. One
// mutex serializes it: at most two clients and three demux goroutines
// touch it, and its cost is what trace.overhead_share reports.
type tracer struct {
	now func() int64

	mu     sync.Mutex
	nextID uint32
	spans  []span
	// dur and self hold every span's duration and — for engine calls —
	// its self time (duration minus the part its children cover), ns.
	dur  [spanKinds][]int64
	self [spanKinds][]int64
	// open maps a transaction id to its in-flight engine call.
	open map[uint64]*openOp
	// roundTrips counts engine calls that waited for at least one
	// reply: parallel fan-out to several servers is one round trip on
	// the transaction's critical path.
	roundTrips int64
	// sendNanos sums the time spent inside Send/SendBatch calls of
	// client connections.
	sendNanos int64
}

// newTracer returns an empty tracer; setUp points now at the env's
// clock.
func newTracer() *tracer {
	return &tracer{open: make(map[uint64]*openOp), spans: make([]span, 0, maxSpansKept)}
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	for k := range t.dur {
		t.dur[k], t.self[k] = t.dur[k][:0], t.self[k][:0]
	}
	t.roundTrips = 0
	atomic.StoreInt64(&t.sendNanos, 0)
	t.mu.Unlock()
}

// id allocates a span id; ids start at 1 so 0 can mean "no parent".
func (t *tracer) id() uint32 {
	t.nextID++
	return t.nextID
}

// add records a finished span. Caller holds t.mu.
func (t *tracer) add(s span) {
	if len(t.spans) < maxSpansKept {
		t.spans = append(t.spans, s)
	}
	t.dur[s.kind] = append(t.dur[s.kind], s.end-s.start)
}

// enter opens an engine call of transaction txn.
func (t *tracer) enter(txn uint64, op *openOp) int64 {
	t.mu.Lock()
	op.id, op.calls, op.kids = t.id(), 0, op.kids[:0]
	t.open[txn] = op
	t.mu.Unlock()
	return t.now()
}

// leave closes the call opened by enter and records its span and self
// time.
func (t *tracer) leave(txn uint64, parent uint32, kind spanKind, op *openOp, start int64) {
	end := t.now()
	t.mu.Lock()
	delete(t.open, txn)
	t.add(span{id: op.id, parent: parent, txn: txn, kind: kind, start: start, end: end})
	t.self[kind] = append(t.self[kind], end-start-covered(op.kids, start, end))
	if op.calls > 0 {
		t.roundTrips++
	}
	t.mu.Unlock()
}

// covered returns how much of [start, end] the intervals cover, as a
// union: a fan-out's three overlapping waits count once.
func covered(kids []interval, start, end int64) int64 {
	slices.SortFunc(kids, func(a, b interval) int { return int(a.start - b.start) })
	var total int64
	at := start
	for _, k := range kids {
		lo, hi := max(k.start, at), min(k.end, end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// frame records one transport span of transaction txn and charges it
// to the transaction's in-flight engine call, if there still is one (a
// cast's reply usually arrives after the call that sent it returned).
func (t *tracer) frame(kind spanKind, txn uint64, parent uint32, start, end int64, call bool) uint32 {
	t.mu.Lock()
	if op := t.open[txn]; op != nil && (parent == 0 || parent == op.id) {
		parent = op.id
		op.kids = append(op.kids, interval{start, end})
		if call && kind == spanSend {
			op.calls++
		}
	}
	t.add(span{id: t.id(), parent: parent, txn: txn, kind: kind, start: start, end: end})
	t.mu.Unlock()
	return parent
}

// p50 returns the median of xs in the given unit (ns per unit), 0 when
// the kind never occurred on this workload.
func p50(xs []int64, unit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return float64(xs[len(xs)/2]) / unit
}

// write dumps the kept spans as JSON lines, one object per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"txn":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.txn, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSession interposes on a session and records a span per call.
type tracedSession struct {
	inner session
	tr    *tracer

	txn      uint64
	txnSpan  uint32
	txnStart int64
	live     bool
	op       openOp
}

func (s *tracedSession) begin(ctx context.Context) error {
	s.tr.mu.Lock()
	s.txnSpan = s.tr.id()
	beginSpan := s.tr.id()
	s.tr.mu.Unlock()
	s.txnStart = s.tr.now()
	err := s.inner.begin(ctx)
	end := s.tr.now()
	if err != nil {
		return err
	}
	// The engine assigns the id inside Begin, so the begin span is
	// recorded whole rather than opened: Begin sends no frame.
	s.txn, s.live = s.inner.txnID(), true
	s.tr.mu.Lock()
	s.tr.add(span{id: beginSpan, parent: s.txnSpan, txn: s.txn, kind: spanBegin, start: s.txnStart, end: end})
	s.tr.self[spanBegin] = append(s.tr.self[spanBegin], end-s.txnStart)
	s.tr.mu.Unlock()
	return nil
}

func (s *tracedSession) read(ctx context.Context, key string) ([]byte, error) {
	start := s.tr.enter(s.txn, &s.op)
	v, err := s.inner.read(ctx, key)
	s.tr.leave(s.txn, s.txnSpan, spanRead, &s.op, start)
	return v, err
}

func (s *tracedSession) getMulti(ctx context.Context, keys []string) error {
	start := s.tr.enter(s.txn, &s.op)
	err := s.inner.getMulti(ctx, keys)
	s.tr.leave(s.txn, s.txnSpan, spanGetMulti, &s.op, start)
	return err
}

func (s *tracedSession) write(ctx context.Context, key string, value []byte) error {
	start := s.tr.enter(s.txn, &s.op)
	err := s.inner.write(ctx, key, value)
	s.tr.leave(s.txn, s.txnSpan, spanWrite, &s.op, start)
	return err
}

func (s *tracedSession) commit(ctx context.Context) error {
	start := s.tr.enter(s.txn, &s.op)
	err := s.inner.commit(ctx)
	s.tr.leave(s.txn, s.txnSpan, spanCommit, &s.op, start)
	s.finish()
	return err
}

func (s *tracedSession) abort(ctx context.Context) {
	s.inner.abort(ctx)
	s.finish()
}

// finish records the transaction's own span once, at commit or abort.
func (s *tracedSession) finish() {
	if !s.live {
		return
	}
	s.live = false
	end := s.tr.now()
	s.tr.mu.Lock()
	s.tr.add(span{id: s.txnSpan, txn: s.txn, kind: spanTxn, start: s.txnStart, end: end})
	s.tr.mu.Unlock()
}

func (s *tracedSession) txnID() uint64 { return s.txn }
