package wire

import (
	"io"
	"net"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// benchReadResp is a representative hot response: a 16-key batched read
// with 1KB values, i.e. the kind of frame that dominates a read-heavy
// workload at scale.
func benchReadResp(valueSize int) ReadLockBatchResp {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	resp := ReadLockBatchResp{Status: StatusOK}
	for i := 0; i < 16; i++ {
		resp.Results = append(resp.Results, ReadLockResult{
			Status:    StatusOK,
			VersionTS: timestamp.New(int64(100+i), 1),
			Value:     val,
			Got:       timestamp.Span(timestamp.New(int64(101+i), 1), timestamp.New(5000, 0)),
		})
	}
	return resp
}

// nullWriter swallows writes without retaining them (io.Discard through
// an interface, so the vectored path is exercised like a socket's).
type nullWriter struct{ n int }

func (w *nullWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkFramePathEncodeWrite measures the sender half of the frame
// path: append-encode one batched read response (16 keys, 1KB values)
// into a pooled frame buffer and write it. Steady state must be 0
// allocs/op — CI fails otherwise (the old Encode-then-copy convention
// cost 13 allocs and ~98KB per frame here).
func BenchmarkFramePathEncodeWrite(b *testing.B) {
	resp := benchReadResp(1024)
	fb := GetFrameBuf()
	defer fb.Release()
	w := &nullWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// &resp: boxing the struct value into the Message interface
		// would allocate per call; the pointer is boxed for free.
		if err := fb.SetFrame(uint64(i), TReadLockBatchResp, &resp); err != nil {
			b.Fatal(err)
		}
		if err := WriteFrame(w, fb); err != nil {
			b.Fatal(err)
		}
	}
}

// loopbackConn returns the sending end of a TCP connection to this
// process whose other end is read and discarded until tb ends. A real
// net.Conn, because only one takes net.Buffers' vectored path — the one
// that makes a badly placed iovec header escape; an io.Writer that is
// not one gets a Write per buffer.
func loopbackConn(tb testing.TB) net.Conn {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		peer, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, peer) // until the sender closes
		_ = peer.Close()
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = c.Close()
		<-drained
	})
	return c
}

// BenchmarkFramePathWriteFrames measures the coalesced send: two small
// replies, the batch a reply flusher most often finds, leave as one
// vectored write on a loopback socket. Steady state must be 0 allocs/op:
// the iovec and its header belong to the connection.
func BenchmarkFramePathWriteFrames(b *testing.B) {
	c := loopbackConn(b)
	single := benchSingleReadResp()
	fbs := []*FrameBuf{GetFrameBuf(), GetFrameBuf()}
	defer ReleaseAll(fbs)
	for i, fb := range fbs {
		if err := fb.SetFrame(uint64(i), TReadLockBatchResp, &single); err != nil {
			b.Fatal(err)
		}
	}
	vec := new(net.Buffers) // a connection's field: on the heap once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrames(c, fbs, vec); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader replays one encoded frame forever.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// encodeBenchFrame renders one frame to raw bytes for the read benches.
func encodeBenchFrame(b *testing.B, t MsgType, m Message) []byte {
	b.Helper()
	fb := GetFrameBuf()
	defer fb.Release()
	if err := fb.SetFrame(7, t, m); err != nil {
		b.Fatal(err)
	}
	var w sliceWriter
	if err := WriteFrame(&w, fb); err != nil {
		b.Fatal(err)
	}
	return w.b
}

// BenchmarkFramePathReadDecode measures the receiver half: read one
// frame into a pooled buffer and decode the batched read response in
// place (values stay borrowed views of the frame body; the results
// slice is reused via DecodeInto). Steady state must be 0 allocs/op —
// the old one-message-one-allocation convention cost 23 allocs and
// ~38KB per frame here.
func BenchmarkFramePathReadDecode(b *testing.B) {
	resp := benchReadResp(1024)
	r := &loopReader{data: encodeBenchFrame(b, TReadLockBatchResp, resp)}
	fb := GetFrameBuf()
	defer fb.Release()
	var out ReadLockBatchResp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ReadFrame(r, fb); err != nil {
			b.Fatal(err)
		}
		if err := out.DecodeInto(fb.Body()); err != nil || len(out.Results) != 16 {
			b.Fatalf("%v %d", err, len(out.Results))
		}
	}
}

// benchSingleReadResp is the answer to a single-key read: a batch of
// one result with a 1KB value.
func benchSingleReadResp() ReadLockBatchResp {
	return ReadLockBatchResp{Status: StatusOK, Results: []ReadLockResult{{
		Status:    StatusOK,
		VersionTS: timestamp.New(100, 1),
		Value:     make([]byte, 1024),
		Got:       timestamp.Span(timestamp.New(101, 1), timestamp.New(5000, 0)),
	}}}
}

// BenchmarkFramePathReadDecodeSingle is the single-key variant: a
// one-result ReadLockBatchResp with a 1KB value per frame, decoded in
// place. Steady state must be 0 allocs/op.
func BenchmarkFramePathReadDecodeSingle(b *testing.B) {
	r := &loopReader{data: encodeBenchFrame(b, TReadLockBatchResp, benchSingleReadResp())}
	fb := GetFrameBuf()
	defer fb.Release()
	var out ReadLockBatchResp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ReadFrame(r, fb); err != nil {
			b.Fatal(err)
		}
		if err := out.DecodeInto(fb.Body()); err != nil || len(out.Results) != 1 || len(out.Results[0].Value) != 1024 {
			b.Fatalf("%v %d", err, len(out.Results))
		}
	}
}

// benchLogTailResp is a representative catch-up frame: 32 replicated
// version installs with 1KB values, the shape a standby drains from its
// head in steady state.
func benchLogTailResp(valueSize int) LogTailResp {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	resp := LogTailResp{Status: StatusOK, Epoch: 3, NextLSN: 1000}
	for i := 0; i < 32; i++ {
		resp.Records = append(resp.Records, ReplRecord{
			LSN:   uint64(900 + i),
			Key:   []byte("user:0000042"),
			TS:    timestamp.New(int64(100+i), 1),
			Value: val,
		})
	}
	return resp
}

// BenchmarkFramePathReplLogTail measures the replica catch-up stream:
// read one log-tail frame (32 records, 1KB values) into a pooled buffer
// and decode it in place (keys and values stay borrowed views; the
// records slice is reused via DecodeInto). Steady state must be 0
// allocs/op — CI gates it with the other FramePath benchmarks.
func BenchmarkFramePathReplLogTail(b *testing.B) {
	resp := benchLogTailResp(1024)
	r := &loopReader{data: encodeBenchFrame(b, TLogTailResp, resp)}
	fb := GetFrameBuf()
	defer fb.Release()
	var out LogTailResp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ReadFrame(r, fb); err != nil {
			b.Fatal(err)
		}
		if err := out.DecodeInto(fb.Body()); err != nil || len(out.Records) != 32 {
			b.Fatalf("%v %d", err, len(out.Records))
		}
	}
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
