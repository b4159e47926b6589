// Package wire defines the message protocol between transaction
// coordinators (clients) and storage servers in the distributed MVTL
// algorithm (§7/§H, Algorithms 11-13), with a compact hand-rolled binary
// codec (the paper's implementation used Apache Thrift; we substitute a
// dependency-free framed protocol with the same request/response shapes).
//
// Every frame is length-prefixed and carries a request id so that many
// outstanding requests can share one connection: server-side handlers may
// block on locks, and responses return out of order.
//
// # Frame layout
//
// A frame is a 13-byte header followed by the message body:
//
//	offset  size  field
//	0       4     length (little endian; counts id+type+body = 9+len(body))
//	4       8     correlation id
//	12      1     message type
//	13      n     body (the message's append-encoding)
//
// # Buffer ownership
//
// The frame path is allocation-free in steady state: frames live in
// pooled FrameBuf buffers, messages append-encode directly into them
// (Message.AppendTo), and decoders parse in place over a borrowed view
// of the frame body. The ownership rules:
//
//   - GetFrameBuf hands out a pooled buffer; Release returns it. Every
//     buffer has exactly one owner at a time. The pool checks this at
//     run time: Outstanding counts the buffers handed out and not yet
//     released, every test binary that moves frames ends at 0
//     (internal/wiretest), and a second Release of one buffer panics.
//   - transport.Conn.Send takes ownership of the buffer it is passed —
//     even on error — and releases it once the bytes are on the wire
//     (TCP) or hands it to the receiving end (the in-memory transport
//     delivers the very same buffer, copy-free).
//   - transport.Conn.Recv returns an owned buffer; the receiver must
//     Release it when done.
//   - Decoded messages BORROW the frame body: every []byte field (a
//     Decoder.Blob result) is a view into the buffer it was decoded
//     from, and so is every string a request's DecodeInto fills in (a
//     Decoder.StrView result: keys, the decision server's address). A
//     decoded value that outlives the buffer — a pending write recorded
//     in server state, a read result returned to the application, a key
//     entered into a map — must be copied out (bytes.Clone,
//     strings.Clone) before Release. The strings of responses and all
//     timestamp sets are materialized by the decoder and are always safe
//     to keep.
//
// # One decoder per message
//
// A message type has exactly one decoder. The requests a server decodes
// on its hot path, and the two responses whose slices a caller reuses
// (ReadLockBatchResp, LogTailResp), have a DecodeInto method that
// overwrites every field of its receiver; everything else has a
// Decode<T> function returning a fresh value. TestMessageCatalog
// rejects a type that has both, or neither, and one missing from the
// codec and fuzz tables.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// MsgType identifies the message kind of a frame.
type MsgType uint8

// Request and response message types.
const (
	// The single-key read-lock, freeze and release messages (types 1-2
	// and 5-10) are retired in favour of the batch family below. Their
	// numbers stay reserved so that a frame from an old peer is rejected
	// as unknown instead of being decoded as something else. Type 1
	// keeps its name for such a frame; no message is defined for it.
	TReadLockReq MsgType = iota + 1
	_
	// TWriteLockReq is the last single-key footprint message (see
	// WriteLockReq). No coordinator sends it: writes are buffered and
	// write-locked in one batch per server at commit. Only the benchmark
	// module's probes still do, and it goes with them.
	TWriteLockReq
	TWriteLockResp
	_
	_
	_
	_
	_
	_
	TDecideReq
	TDecideResp
	TPurgeReq
	TPurgeResp
	TStatsReq
	TStatsResp
	// Batched footprint messages (see batch.go): one frame per server
	// carries a transaction's whole share of the footprint.
	TWriteLockBatchReq
	TWriteLockBatchResp
	TFreezeBatchReq
	// TFreezeBatchResp carries an Ack; the number stays where it was so
	// that no later type's number moves.
	TFreezeBatchResp
	TReleaseBatchReq
	TReleaseBatchResp
	// Cross-server deadlock detection: coordinators poll a server's
	// local wait-for edges (TWaitGraphReq has an empty body) and abort
	// the victim of a confirmed global cycle via TVictimAbortReq.
	TWaitGraphReq
	TWaitGraphResp
	TVictimAbortReq
	TVictimAbortResp
	// Batched read path (see batch.go): one frame fetches a
	// transaction's whole per-server share of a static read set, so a
	// multi-key read costs O(servers) round trips instead of O(keys).
	TReadLockBatchReq
	TReadLockBatchResp
	// Bulk-transfer family (see repl.go): chunked snapshot and
	// replication-log tail streaming, used by catching-up replicas and
	// warm standbys to mirror a partition head's committed versions.
	TSnapshotChunkReq
	TSnapshotChunkResp
	TLogTailReq
	TLogTailResp
)

// MaxFrameSize bounds a frame to keep a malformed peer from forcing a
// huge allocation.
const MaxFrameSize = 16 << 20

// headerSize is the fixed frame header: 4-byte length prefix, 8-byte
// correlation id, 1-byte message type.
const headerSize = 4 + 8 + 1

// maxPooledBody caps the body capacity a recycled buffer may retain, so
// one oversized frame does not pin its allocation in the pool forever.
const maxPooledBody = 64 << 10

// Message is anything that can append its wire encoding to a buffer —
// the codec convention of this package: encoders never allocate their
// own output, they extend the (pooled) buffer they are given.
type Message interface {
	// AppendTo appends the message's encoding to buf and returns the
	// extended buffer, like append.
	AppendTo(buf []byte) []byte
}

// Raw is a pre-encoded message body (used by tests and generic
// forwarding); AppendTo copies it verbatim.
type Raw []byte

// AppendTo implements Message.
func (m Raw) AppendTo(buf []byte) []byte { return append(buf, m...) }

// FrameBuf is a pooled buffer holding one frame: the fixed header and
// the append-encoded message body. The zero value is usable, but hot
// paths obtain buffers from GetFrameBuf and return them with Release;
// see the package comment for the ownership rules.
type FrameBuf struct {
	hdr    [headerSize]byte
	pooled bool // in the pool: Release panics; fills hdr's padding
	body   []byte
	// vec and storage back vectored writes: header and body go to the
	// kernel as one writev, never coalescing into a third buffer.
	// net.Buffers consumes the slice it writes, so vec is rebuilt from
	// storage on every WriteTo without allocating.
	vec     net.Buffers
	storage [2][]byte
}

var (
	framePool   = sync.Pool{New: func() any { return new(FrameBuf) }}
	outstanding atomic.Int64
)

// GetFrameBuf returns a frame buffer from the pool.
func GetFrameBuf() *FrameBuf {
	fb := framePool.Get().(*FrameBuf)
	fb.pooled = false
	outstanding.Add(1)
	return fb
}

// Outstanding returns how many buffers GetFrameBuf has handed out and
// Release has not yet taken back.
func Outstanding() int64 { return outstanding.Load() }

// Release returns the buffer to the pool. It is a no-op on nil, so
// error paths can release unconditionally. The caller must not touch
// the buffer — or anything decoded from it — afterwards; releasing a
// buffer that is already back in the pool panics.
func (fb *FrameBuf) Release() {
	if fb == nil {
		return
	}
	if fb.pooled {
		panic("wire: FrameBuf released twice")
	}
	fb.pooled = true
	outstanding.Add(-1)
	if cap(fb.body) > maxPooledBody {
		fb.body = nil
	} else {
		fb.body = fb.body[:0]
	}
	framePool.Put(fb)
}

// ID returns the frame's correlation id.
func (fb *FrameBuf) ID() uint64 { return binary.LittleEndian.Uint64(fb.hdr[4:12]) }

// Type returns the frame's message type.
func (fb *FrameBuf) Type() MsgType { return MsgType(fb.hdr[12]) }

// Body returns the encoded message body. The view is only valid until
// the buffer is released or re-encoded.
func (fb *FrameBuf) Body() []byte { return fb.body }

// WireLen returns the frame's size on the wire (header plus body).
func (fb *FrameBuf) WireLen() int { return headerSize + len(fb.body) }

// SetFrame encodes m (nil for an empty body, e.g. TStatsReq) as the
// frame's body — reusing the buffer's capacity — and fills the header.
func (fb *FrameBuf) SetFrame(id uint64, t MsgType, m Message) error {
	fb.body = fb.body[:0]
	if m != nil {
		fb.body = m.AppendTo(fb.body)
	}
	// The length field counts id+type+body and must itself pass the
	// receiver's n <= MaxFrameSize check, so the body allowance is the
	// header's id+type share smaller — without this a sender-legal
	// frame would tear down the connection at the receiver.
	if len(fb.body) > MaxFrameSize-(headerSize-4) {
		return fmt.Errorf("wire: frame body %d exceeds limit", len(fb.body))
	}
	binary.LittleEndian.PutUint32(fb.hdr[0:4], uint32(headerSize-4+len(fb.body)))
	binary.LittleEndian.PutUint64(fb.hdr[4:12], id)
	fb.hdr[12] = byte(t)
	return nil
}

// WriteFrame writes the frame to w. Header and body are handed to the
// kernel as one vectored write on net.Conn writers (a single writev
// syscall, no coalescing copy); other writers receive two Write calls.
func WriteFrame(w io.Writer, fb *FrameBuf) error {
	fb.storage[0], fb.storage[1] = fb.hdr[:], fb.body
	fb.vec = fb.storage[:]
	_, err := fb.vec.WriteTo(w)
	fb.storage[0], fb.storage[1] = nil, nil
	return err
}

// WriteFrames writes every frame in fbs back to back as one vectored
// write: each frame contributes its header and body views, so on
// net.Conn writers a whole batch reaches the kernel as a single writev
// (the runtime splits batches beyond the iovec limit). The bytes are
// identical to len(fbs) sequential WriteFrame calls — batching is
// invisible to the receiver. vec is the connection's reusable iovec: it
// is the very value WriteTo is called on — a net.Buffers local to this
// function would move to the heap on every call, since WriteTo hands its
// receiver to the writer — and it comes back empty over the same backing
// array, so steady-state batch writes allocate nothing. WriteFrames does
// not release the frames; the caller (the transport) still owns them.
func WriteFrames(w io.Writer, fbs []*FrameBuf, vec *net.Buffers) error {
	all := (*vec)[:0]
	for _, fb := range fbs {
		all = append(all, fb.hdr[:], fb.body)
	}
	*vec = all // WriteTo consumes *vec; all keeps the backing array
	_, err := vec.WriteTo(w)
	clear(all)
	*vec = all[:0]
	return err
}

// ReleaseAll releases every frame in fbs and nils the entries, so a
// reused batch slice cannot leak stale references to repooled buffers.
// Nil entries are skipped.
func ReleaseAll(fbs []*FrameBuf) {
	for i, fb := range fbs {
		fb.Release()
		fbs[i] = nil
	}
}

// ReadFrame reads one frame from r into fb, reusing fb's capacity. On
// error fb's contents are undefined; the caller still owns it.
func ReadFrame(r io.Reader, fb *FrameBuf) error {
	if _, err := io.ReadFull(r, fb.hdr[0:4]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(fb.hdr[0:4])
	if n < headerSize-4 || n > MaxFrameSize {
		return fmt.Errorf("wire: bad frame length %d", n)
	}
	if _, err := io.ReadFull(r, fb.hdr[4:]); err != nil {
		return noEOF(err)
	}
	body := int(n) - (headerSize - 4)
	if cap(fb.body) < body {
		fb.body = make([]byte, body)
	} else {
		fb.body = fb.body[:body]
	}
	if _, err := io.ReadFull(r, fb.body); err != nil {
		return noEOF(err)
	}
	return nil
}

// noEOF turns a clean EOF mid-frame into ErrUnexpectedEOF: once the
// length prefix has been read, running out of bytes is a truncation.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- encode/decode helpers -------------------------------------------------

// Encoder appends primitive values to a buffer. Construct it over the
// destination buffer (Encoder{buf: dst}) and read the result from buf —
// message AppendTo methods are thin sequences of Encoder appends.
type Encoder struct{ buf []byte }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// I32 appends an int32.
func (e *Encoder) I32(v int32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v)) }

// Bool appends a bool.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Blob appends a length-prefixed byte slice; nil round-trips as nil.
func (e *Encoder) Blob(v []byte) {
	if v == nil {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, math.MaxUint32)
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(v string) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// StrSlice appends a length-prefixed sequence of strings.
func (e *Encoder) StrSlice(v []string) {
	e.I32(int32(len(v)))
	for _, s := range v {
		e.Str(s)
	}
}

// status appends a status byte.
func (e *Encoder) status(s Status) { e.buf = append(e.buf, byte(s)) }

// TS appends a timestamp.
func (e *Encoder) TS(t timestamp.Timestamp) {
	e.I64(t.Time)
	e.I32(t.Proc)
}

// Interval appends an interval.
func (e *Encoder) Interval(iv timestamp.Interval) {
	e.TS(iv.Lo)
	e.TS(iv.Hi)
}

// Set appends an interval set.
func (e *Encoder) Set(s timestamp.Set) {
	n := s.NumIntervals()
	e.I32(int32(n))
	for i := 0; i < n; i++ {
		e.Interval(s.At(i))
	}
}

// ErrTruncated reports a message shorter than its schema.
var ErrTruncated = errors.New("wire: truncated message")

// Decoder consumes primitive values from a buffer, in place: it never
// copies the buffer, and Blob results are borrowed views into it (see
// the package comment for the ownership rules).
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = ErrTruncated
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// U64 consumes a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 consumes an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// I32 consumes an int32.
func (d *Decoder) I32() int32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(b))
}

// Bool consumes a bool.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// Blob consumes a length-prefixed byte slice. The result is a BORROWED
// view into the decoded buffer, valid only as long as the buffer: a
// blob that escapes the frame's lifetime must be copied out
// (bytes.Clone) by the caller.
func (d *Decoder) Blob() []byte {
	b := d.take(4)
	if b == nil {
		return nil
	}
	n := binary.LittleEndian.Uint32(b)
	if n == math.MaxUint32 {
		return nil
	}
	if n > MaxFrameSize {
		d.err = fmt.Errorf("wire: blob length %d too large", n)
		return nil
	}
	return d.take(int(n))
}

// Str consumes a length-prefixed string. Unlike Blob the result is an
// owned copy (string conversion), safe to keep.
func (d *Decoder) Str() string { return string(d.Blob()) }

// StrView consumes a length-prefixed string without copying it: like
// Blob, the result is a BORROWED view into the decoded buffer and reads
// as garbage once the buffer is reused. It serves the request decoders,
// whose keys a server only looks up and compares; whatever outlives the
// frame is cloned (strings.Clone) by the code that keeps it.
func (d *Decoder) StrView() string {
	b := d.Blob()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// strViewsInto consumes a length-prefixed sequence of strings as
// borrowed views (see StrView), reusing dst's capacity.
func (d *Decoder) strViewsInto(dst []string) []string {
	n := d.count()
	dst = dst[:0]
	for i := 0; i < n && d.err == nil; i++ {
		dst = append(dst, d.StrView())
	}
	return dst
}

// status consumes a status byte.
func (d *Decoder) status() Status {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return Status(b[0])
}

// TS consumes a timestamp.
func (d *Decoder) TS() timestamp.Timestamp {
	t := d.I64()
	p := d.I32()
	return timestamp.New(t, p)
}

// Interval consumes an interval.
func (d *Decoder) Interval() timestamp.Interval {
	lo := d.TS()
	hi := d.TS()
	return timestamp.Span(lo, hi)
}

// Set consumes an interval set. The result is owned (materialized into
// the set's own storage), safe to keep.
func (d *Decoder) Set() timestamp.Set {
	n := d.I32()
	// An encoded interval is 24 bytes, so a valid count can never
	// exceed the remaining buffer: reject early instead of spinning a
	// huge loop over an already-errored decoder.
	if n < 0 || int(n) > len(d.buf)/24 {
		if d.err == nil {
			d.err = fmt.Errorf("wire: set length %d invalid", n)
		}
		return timestamp.Set{}
	}
	var s timestamp.Set
	for i := int32(0); i < n && d.err == nil; i++ {
		s.AddInPlace(d.Interval())
	}
	return s
}
