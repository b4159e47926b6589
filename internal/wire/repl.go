package wire

import (
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Bulk-transfer messages stream a partition's committed state between
// replicas: a catching-up replica first drains the head's key/version
// state in chunks (SnapshotChunkReq/Resp), then follows the replication
// log (LogTailReq/Resp) — every committed version install is one
// LSN-numbered record. Both ride the pooled FrameBuf path: records
// append-encode into the reply frame, decoders hand out borrowed views,
// and replies coalesce through the server's reply flusher into
// SendBatch, so steady-state catch-up is zero-copy and allocation-free.

// ReplRecord is one replicated version install: transaction commit
// wrote Value to Key at timestamp TS, as log sequence number LSN.
// Snapshot chunks reuse the type with LSN 0 (the chunk's watermark is
// carried once, on the response). Key and Value are BORROWED views into
// the decoded frame (see Decoder.Blob); an apply path that outlives the
// frame must copy them out.
type ReplRecord struct {
	LSN   uint64
	Key   []byte
	TS    timestamp.Timestamp
	Value []byte
}

// ReplRecords appends a length-prefixed sequence of replication
// records.
func (e *Encoder) ReplRecords(v []ReplRecord) {
	e.I32(int32(len(v)))
	for _, r := range v {
		e.U64(r.LSN)
		e.Blob(r.Key)
		e.TS(r.TS)
		e.Blob(r.Value)
	}
}

// replRecordsInto consumes a length-prefixed sequence of replication
// records, reusing dst's capacity. Records borrow from the decoded
// buffer.
func (d *Decoder) replRecordsInto(dst []ReplRecord) []ReplRecord {
	n := d.count()
	dst = dst[:0]
	for i := 0; i < n && d.err == nil; i++ {
		dst = append(dst, ReplRecord{LSN: d.U64(), Key: d.Blob(), TS: d.TS(), Value: d.Blob()})
	}
	if d.err != nil {
		return nil
	}
	return dst
}

// SnapshotChunkReq asks a replica for one chunk of its committed
// key/version state. Cursor 0 starts a snapshot; subsequent requests
// pass the previous response's NextCursor. Epoch 0 accepts any serving
// epoch (a joining replica does not know one yet); a non-zero mismatch
// is answered with StatusWrongEpoch.
type SnapshotChunkReq struct {
	Epoch   uint64
	Cursor  uint64
	MaxKeys uint32
}

// AppendTo implements Message.
func (m SnapshotChunkReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Epoch)
	e.U64(m.Cursor)
	e.I32(int32(m.MaxKeys))
	return e.buf
}

// DecodeSnapshotChunkReq deserializes a SnapshotChunkReq.
func DecodeSnapshotChunkReq(b []byte) (SnapshotChunkReq, error) {
	d := NewDecoder(b)
	m := SnapshotChunkReq{Epoch: d.U64(), Cursor: d.U64(), MaxKeys: uint32(d.I32())}
	return m, d.Err()
}

// SnapshotChunkResp carries one snapshot chunk. NextCursor is the
// cursor for the next chunk, 0 when the snapshot is complete. LSN is
// the sender's log watermark when the chunk was built: every install up
// to LSN for the chunk's keys is included, and anything later reaches
// the receiver through the log tail (installs are idempotent, so the
// overlap is harmless). Epoch is the sender's membership epoch.
type SnapshotChunkResp struct {
	Status     Status
	Err        string
	Epoch      uint64
	NextCursor uint64
	LSN        uint64
	Records    []ReplRecord
}

// AppendTo implements Message.
func (m SnapshotChunkResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.U64(m.Epoch)
	e.U64(m.NextCursor)
	e.U64(m.LSN)
	e.ReplRecords(m.Records)
	return e.buf
}

// DecodeSnapshotChunkResp deserializes a SnapshotChunkResp. Record keys
// and values are borrowed views into b.
func DecodeSnapshotChunkResp(b []byte) (SnapshotChunkResp, error) {
	d := NewDecoder(b)
	m := SnapshotChunkResp{
		Status: d.status(), Err: d.Str(), Epoch: d.U64(),
		NextCursor: d.U64(), LSN: d.U64(),
	}
	m.Records = d.replRecordsInto(nil)
	return m, d.Err()
}

// LogTailReq asks a replica for its replication log from LSN From on.
// Epoch 0 accepts any serving epoch, as in SnapshotChunkReq.
type LogTailReq struct {
	Epoch      uint64
	From       uint64
	MaxRecords uint32
}

// AppendTo implements Message.
func (m LogTailReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Epoch)
	e.U64(m.From)
	e.I32(int32(m.MaxRecords))
	return e.buf
}

// DecodeLogTailReq deserializes a LogTailReq.
func DecodeLogTailReq(b []byte) (LogTailReq, error) {
	d := NewDecoder(b)
	m := LogTailReq{Epoch: d.U64(), From: d.U64(), MaxRecords: uint32(d.I32())}
	return m, d.Err()
}

// LogTailResp carries consecutive log records starting at the request's
// From. NextLSN is the sender's next unassigned LSN, so the receiver's
// lag is NextLSN - 1 - (last applied LSN). SnapshotNeeded reports that
// the log has been trimmed past From: the receiver must restart with a
// snapshot. Epoch is the sender's membership epoch.
type LogTailResp struct {
	Status         Status
	Err            string
	Epoch          uint64
	NextLSN        uint64
	SnapshotNeeded bool
	Records        []ReplRecord
}

// AppendTo implements Message.
func (m LogTailResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.U64(m.Epoch)
	e.U64(m.NextLSN)
	e.Bool(m.SnapshotNeeded)
	e.ReplRecords(m.Records)
	return e.buf
}

// DecodeInto deserializes into m, reusing m.Records' capacity — the
// steady-state decode of the catch-up pull loop allocates nothing
// (record keys and values are borrowed views into b, see Decoder.Blob).
// All fields are overwritten.
func (m *LogTailResp) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Status = d.status()
	m.Err = d.Str()
	m.Epoch = d.U64()
	m.NextLSN = d.U64()
	m.SnapshotNeeded = d.Bool()
	m.Records = d.replRecordsInto(m.Records)
	return d.Err()
}
