package wire

import (
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Batch messages carry a transaction's whole per-server footprint in one
// frame, so that a commit or abort costs O(servers) round trips instead
// of O(keys) (§7: the coordinator groups Alg. 11's per-key messages by
// the server owning each key). Servers answer with per-key sub-results;
// a single key travels as a batch of one.

// WriteLockItem is one key of a WriteLockBatchReq: the requested lock
// set and the pending value to buffer.
type WriteLockItem struct {
	Key   string
	Set   timestamp.Set
	Value []byte
}

// WriteLockBatchReq asks the server to write-lock every listed key for
// the transaction in one pass (the batched form of WriteLockReq).
// DecisionSrv names the server hosting the transaction's commitment
// object, as in WriteLockReq; Epoch is the coordinator's cached
// membership epoch (0 on unreplicated clusters).
type WriteLockBatchReq struct {
	Txn         uint64
	Epoch       uint64
	DecisionSrv string
	Wait        bool
	Items       []WriteLockItem
}

// AppendTo implements Message.
func (m WriteLockBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.Str(m.DecisionSrv)
	e.Bool(m.Wait)
	e.I32(int32(len(m.Items)))
	for _, it := range m.Items {
		e.Str(it.Key)
		e.Set(it.Set)
		e.Blob(it.Value)
	}
	return e.buf
}

// DecodeInto deserializes into m, reusing m.Items' capacity. Every
// field is overwritten; DecisionSrv and the items' keys and values are
// borrowed views of b.
func (m *WriteLockBatchReq) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Txn, m.Epoch, m.DecisionSrv, m.Wait = d.U64(), d.U64(), d.StrView(), d.Bool()
	n := d.count()
	m.Items = m.Items[:0]
	for i := 0; i < n && d.err == nil; i++ {
		m.Items = append(m.Items, WriteLockItem{Key: d.StrView(), Set: d.Set(), Value: d.Blob()})
	}
	return d.Err()
}

// WriteLockResult is the per-key outcome of a batch write-lock, with the
// same fields as WriteLockResp.
type WriteLockResult struct {
	Status Status
	Err    string
	Got    timestamp.Set
	Denied timestamp.Set
}

// WriteLockBatchResp answers a WriteLockBatchReq. Results is parallel to
// the request's Items; Status reports request-level failures (malformed
// frame, transaction already decided) in which case Results may be nil.
// Edges piggybacks the server's local wait-for edges when any sub-result
// was denied, feeding the coordinator's cross-server deadlock detector
// without an extra round trip.
type WriteLockBatchResp struct {
	Status  Status
	Err     string
	Results []WriteLockResult
	Edges   []WaitEdge
}

// AppendTo implements Message.
func (m WriteLockBatchResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.I32(int32(len(m.Results)))
	for _, r := range m.Results {
		e.status(r.Status)
		e.Str(r.Err)
		e.Set(r.Got)
		e.Set(r.Denied)
	}
	e.Edges(m.Edges)
	return e.buf
}

// DecodeWriteLockBatchResp deserializes a WriteLockBatchResp.
func DecodeWriteLockBatchResp(b []byte) (WriteLockBatchResp, error) {
	d := NewDecoder(b)
	m := WriteLockBatchResp{Status: d.status(), Err: d.Str()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.Results = append(m.Results, WriteLockResult{
			Status: d.status(), Err: d.Str(), Got: d.Set(), Denied: d.Set(),
		})
	}
	m.Edges = d.Edges()
	return m, d.Err()
}

// FreezeReadItem is one read-lock range to freeze: the transaction's
// read locks on Key within [Lo, Hi] (garbage collection, Alg. 11 line
// 33).
type FreezeReadItem struct {
	Key    string
	Lo, Hi timestamp.Timestamp
}

// freezeReads appends a length-prefixed sequence of read ranges.
func (e *Encoder) freezeReads(v []FreezeReadItem) {
	e.I32(int32(len(v)))
	for _, r := range v {
		e.Str(r.Key)
		e.TS(r.Lo)
		e.TS(r.Hi)
	}
}

// freezeReadsInto consumes a sequence of read ranges, reusing dst's
// capacity; the keys are borrowed views (see StrView).
func (d *Decoder) freezeReadsInto(dst []FreezeReadItem) []FreezeReadItem {
	n := d.count()
	dst = dst[:0]
	for i := 0; i < n && d.err == nil; i++ {
		dst = append(dst, FreezeReadItem{Key: d.StrView(), Lo: d.TS(), Hi: d.TS()})
	}
	return dst
}

// FreezeBatchReq applies a commit decision to this server's share of the
// footprint in one pass: freeze the write locks of WriteKeys at TS,
// exposing the pending values (Alg. 13, receive-freeze-write-lock-
// message), and freeze the read-lock ranges of Reads. Its one sender
// left is a commit that keeps its other locks (no garbage collection:
// timestamp ordering), which casts it with WriteKeys alone; a commit
// that garbage-collects sends a committed ReleaseBatchReq instead.
type FreezeBatchReq struct {
	Txn       uint64
	Epoch     uint64
	TS        timestamp.Timestamp
	WriteKeys []string
	Reads     []FreezeReadItem
}

// AppendTo implements Message.
func (m FreezeBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.TS(m.TS)
	e.StrSlice(m.WriteKeys)
	e.freezeReads(m.Reads)
	return e.buf
}

// DecodeInto deserializes into m, reusing the capacity of m.WriteKeys
// and m.Reads. Every field is overwritten; all keys are borrowed views
// of b.
func (m *FreezeBatchReq) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Txn, m.Epoch, m.TS = d.U64(), d.U64(), d.TS()
	m.WriteKeys = d.strViewsInto(m.WriteKeys)
	m.Reads = d.freezeReadsInto(m.Reads)
	return d.Err()
}

// FreezeBatchResp answers a FreezeBatchReq that was called with one ack
// per write key (read freezes cannot fail). Coordinators cast their
// freezes and get nothing back; the probes and tests that call one read
// the acks.
type FreezeBatchResp struct {
	Status Status
	Err    string
	// WriteAcks is parallel to the request's WriteKeys.
	WriteAcks []Ack
}

// AppendTo implements Message.
func (m FreezeBatchResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.I32(int32(len(m.WriteAcks)))
	for _, a := range m.WriteAcks {
		e.status(a.Status)
		e.Str(a.Err)
	}
	return e.buf
}

// DecodeFreezeBatchResp deserializes a FreezeBatchResp.
func DecodeFreezeBatchResp(b []byte) (FreezeBatchResp, error) {
	d := NewDecoder(b)
	m := FreezeBatchResp{Status: d.status(), Err: d.Str()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.WriteAcks = append(m.WriteAcks, Ack{Status: d.status(), Err: d.Str()})
	}
	return m, d.Err()
}

// ReleaseBatchReq ends the transaction on this server's share of the
// footprint in one pass: it releases the transaction's unfrozen locks
// on every listed key (all of them, or only write locks). When
// Committed is set, the sender is a coordinator whose transaction
// decided commit at TS, and the batch is the whole of the commit's tail
// here: install every write among Keys still pending at TS and freeze
// its write lock (Alg. 13, receive-freeze-write-lock-message), freeze
// the read-lock ranges of Reads (Alg. 11 line 33), and only then drop
// what is left unfrozen — so no delivery order or lost sibling frame can
// make the handler discard the pending value of a durably committed
// write. Applying it twice changes nothing.
type ReleaseBatchReq struct {
	Txn        uint64
	Epoch      uint64
	WritesOnly bool
	// Committed marks the sender's transaction as decided-commit at TS;
	// pending writes among Keys are installed, not dropped.
	Committed bool
	TS        timestamp.Timestamp
	Keys      []string
	// Reads are the read-lock ranges a committed release freezes before
	// it releases (version read to TS, per key read).
	Reads []FreezeReadItem
}

// AppendTo implements Message.
func (m ReleaseBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.Bool(m.WritesOnly)
	e.Bool(m.Committed)
	e.TS(m.TS)
	e.StrSlice(m.Keys)
	e.freezeReads(m.Reads)
	return e.buf
}

// DecodeInto deserializes into m, reusing the capacity of m.Keys and
// m.Reads. Every field is overwritten; all keys are borrowed views of b.
func (m *ReleaseBatchReq) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Txn, m.Epoch, m.WritesOnly, m.Committed, m.TS = d.U64(), d.U64(), d.Bool(), d.Bool(), d.TS()
	m.Keys = d.strViewsInto(m.Keys)
	m.Reads = d.freezeReadsInto(m.Reads)
	return d.Err()
}

// ReadLockBatchReq asks the server to perform the read step for every
// listed key in one pass (Alg. 13, receive-read-lock-message): per key,
// pick the latest committed version below Upper, read-lock from just
// above it toward Upper (waiting on unfrozen write locks if Wait), and
// return the version and the locked interval. Upper and Wait are shared
// by the whole batch — a coordinator issues one batch per server for a
// static read set, all under the transaction's current interval bound.
type ReadLockBatchReq struct {
	Txn   uint64
	Epoch uint64
	Upper timestamp.Timestamp
	Wait  bool
	Keys  []string
}

// AppendTo implements Message.
func (m ReadLockBatchReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.TS(m.Upper)
	e.Bool(m.Wait)
	e.StrSlice(m.Keys)
	return e.buf
}

// DecodeInto deserializes into m, reusing m.Keys' capacity. Every field
// is overwritten; the keys are borrowed views of b.
func (m *ReadLockBatchReq) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Txn, m.Epoch, m.Upper, m.Wait = d.U64(), d.U64(), d.TS(), d.Bool()
	m.Keys = d.strViewsInto(m.Keys)
	return d.Err()
}

// ReadLockResult is the per-key outcome of a batch read. The wait-for
// edges a conflicted read piggybacks are batch-level.
type ReadLockResult struct {
	Status    Status
	Err       string
	VersionTS timestamp.Timestamp
	Value     []byte
	// Got is the read-locked interval [VersionTS+1, ...]; may be empty.
	Got timestamp.Interval
}

// ReadLockBatchResp answers a ReadLockBatchReq. Results is parallel to
// the request's Keys; Status reports request-level failures (malformed
// frame) in which case Results may be nil. Edges piggybacks the
// server's local wait-for edges when any waiting sub-read conflicted,
// feeding the coordinator's cross-server deadlock detector without an
// extra round trip.
type ReadLockBatchResp struct {
	Status  Status
	Err     string
	Results []ReadLockResult
	Edges   []WaitEdge
}

// AppendTo implements Message.
func (m ReadLockBatchResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.I32(int32(len(m.Results)))
	for _, r := range m.Results {
		e.status(r.Status)
		e.Str(r.Err)
		e.TS(r.VersionTS)
		e.Blob(r.Value)
		e.Interval(r.Got)
	}
	e.Edges(m.Edges)
	return e.buf
}

// DecodeInto deserializes into m, reusing m.Results' capacity — the
// steady-state decode of the hot read path allocates nothing (values
// are borrowed views into b, see Decoder.Blob). All fields are
// overwritten.
func (m *ReadLockBatchResp) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Status = d.status()
	m.Err = d.Str()
	n := d.count()
	m.Results = m.Results[:0]
	for i := 0; i < n && d.err == nil; i++ {
		m.Results = append(m.Results, ReadLockResult{
			Status: d.status(), Err: d.Str(), VersionTS: d.TS(), Value: d.Blob(), Got: d.Interval(),
		})
	}
	m.Edges = d.Edges()
	return d.Err()
}

// count consumes a batch item count, validating its range: every item
// encodes to at least one byte, so a valid count can never exceed the
// remaining buffer — a corrupt prefix fails here instead of driving a
// huge allocation or a long loop over an already-errored decoder.
func (d *Decoder) count() int {
	n := d.I32()
	if d.err != nil {
		return 0
	}
	if n < 0 || int(n) > len(d.buf) {
		d.err = fmt.Errorf("wire: batch count %d invalid", n)
		return 0
	}
	return int(n)
}
