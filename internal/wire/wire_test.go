package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := GetFrameBuf()
	defer in.Release()
	if err := in.SetFrame(42, TStatsReq, Raw("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out := GetFrameBuf()
	defer out.Release()
	if err := ReadFrame(&buf, out); err != nil {
		t.Fatal(err)
	}
	if out.ID() != 42 || out.Type() != TStatsReq || !bytes.Equal(out.Body(), []byte("hello")) {
		t.Fatalf("round trip mismatch: %d %d %q", out.ID(), out.Type(), out.Body())
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	in := GetFrameBuf()
	defer in.Release()
	if err := in.SetFrame(1, TStatsReq, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out := GetFrameBuf()
	defer out.Release()
	if err := ReadFrame(&buf, out); err != nil {
		t.Fatal(err)
	}
	if len(out.Body()) != 0 {
		t.Fatalf("body = %v", out.Body())
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	// length 3 < header size
	buf := bytes.NewBuffer([]byte{3, 0, 0, 0})
	fb := GetFrameBuf()
	defer fb.Release()
	if err := ReadFrame(buf, fb); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	in := GetFrameBuf()
	defer in.Release()
	_ = in.SetFrame(7, TStatsReq, Raw("xyz"))
	_ = WriteFrame(&buf, in)
	b := buf.Bytes()[:buf.Len()-2]
	fb := GetFrameBuf()
	defer fb.Release()
	if err := ReadFrame(bytes.NewBuffer(b), fb); err == nil {
		t.Fatal("expected error on truncated frame")
	}
}

// TestFrameHeaderRoundTripRandom drives the correlation-id frame header
// with random payloads, in the style of the message codec property
// tests: writing a frame and reading it back must reproduce the id, the
// type and the body exactly — the id is what routes a response to the
// one call that sent it, so the header codec must never mangle it. The
// same two pooled buffers are reused throughout, which also pins the
// capacity-reuse path of SetFrame/ReadFrame.
func TestFrameHeaderRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(0xf7a3e))
	in := GetFrameBuf()
	defer in.Release()
	out := GetFrameBuf()
	defer out.Release()
	for i := 0; i < 300; i++ {
		id, typ := r.Uint64(), MsgType(1+r.Intn(30))
		var body []byte
		if r.Intn(4) > 0 {
			body = make([]byte, r.Intn(200))
			r.Read(body)
		}
		if err := in.SetFrame(id, typ, Raw(body)); err != nil {
			t.Fatalf("iteration %d: encode: %v", i, err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatalf("iteration %d: write: %v", i, err)
		}
		if err := ReadFrame(&buf, out); err != nil {
			t.Fatalf("iteration %d: read: %v", i, err)
		}
		if out.ID() != id || out.Type() != typ || !bytes.Equal(out.Body(), body) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

// TestFrameHeaderRejectTruncation checks that reading any strict prefix
// of a framed encoding reports an error instead of fabricating a frame
// (and with it, a bogus correlation id).
func TestFrameHeaderRejectTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	in := GetFrameBuf()
	defer in.Release()
	fb := GetFrameBuf()
	defer fb.Release()
	for i := 0; i < 50; i++ {
		body := make([]byte, r.Intn(40))
		r.Read(body)
		if err := in.SetFrame(r.Uint64(), MsgType(1+r.Intn(30)), Raw(body)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		for cut := 0; cut < len(enc); cut++ {
			if err := ReadFrame(bytes.NewReader(enc[:cut]), fb); err == nil {
				t.Fatalf("iteration %d: truncation at %d/%d not detected", i, cut, len(enc))
			}
		}
	}
}

func ts(a int64, b int32) timestamp.Timestamp { return timestamp.New(a, b) }

func TestReadLockRespNilValue(t *testing.T) {
	in := ReadLockBatchResp{Status: StatusOK, Results: []ReadLockResult{
		{Status: StatusOK, VersionTS: timestamp.Zero, Value: nil, Got: timestamp.Empty},
	}}
	var out ReadLockBatchResp
	if err := out.DecodeInto(in.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Value != nil {
		t.Fatalf("⊥ must round-trip as nil, got %+v", out.Results)
	}
}

func TestWriteLockReqRoundTrip(t *testing.T) {
	set := timestamp.NewSet(
		timestamp.Span(ts(1, 0), ts(5, 0)),
		timestamp.Span(ts(9, 0), ts(12, 0)),
	)
	in := WriteLockReq{Txn: 3, Key: "k", DecisionSrv: "server-2", Set: set, Wait: true, Value: []byte("v")}
	var out WriteLockReq
	if err := out.DecodeInto(in.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if out.Txn != in.Txn || out.Key != in.Key || out.DecisionSrv != in.DecisionSrv ||
		!out.Set.Equal(in.Set) || out.Wait != in.Wait || !bytes.Equal(out.Value, in.Value) {
		t.Fatalf("%+v", out)
	}
}

func TestWriteLockRespRoundTrip(t *testing.T) {
	in := WriteLockResp{
		Status: StatusConflict,
		Err:    "blocked",
		Got:    timestamp.NewSet(timestamp.Span(ts(1, 0), ts(2, 0))),
		Denied: timestamp.NewSet(timestamp.Span(ts(3, 0), ts(4, 0))),
	}
	out, err := DecodeWriteLockResp(in.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != in.Status || out.Err != in.Err || !out.Got.Equal(in.Got) || !out.Denied.Equal(in.Denied) {
		t.Fatalf("%+v", out)
	}
}

func TestSmallMessagesRoundTrip(t *testing.T) {
	ack := Ack{Status: StatusAborted, Err: "gone"}
	if out, err := DecodeAck(ack.AppendTo(nil)); err != nil || out != ack {
		t.Fatalf("%+v %v", out, err)
	}
	dq := DecideReq{Txn: 4, Proposal: DecideCommit, TS: ts(77, 2)}
	if out, err := fresh[DecideReq](dq.AppendTo(nil)); err != nil || out.Txn != 4 || out.Proposal != DecideCommit || out.TS != dq.TS || len(out.Keys)+len(out.Reads) != 0 {
		t.Fatalf("%+v %v", out, err)
	}
	dr := DecideResp{Kind: DecideAbort, TS: ts(0, 0)}
	if out, err := DecodeDecideResp(dr.AppendTo(nil)); err != nil || out != dr {
		t.Fatalf("%+v %v", out, err)
	}
	pq := PurgeReq{Bound: ts(123, 0)}
	if out, err := DecodePurgeReq(pq.AppendTo(nil)); err != nil || out != pq {
		t.Fatalf("%+v %v", out, err)
	}
	pr := PurgeResp{Versions: 10, Locks: 20}
	if out, err := DecodePurgeResp(pr.AppendTo(nil)); err != nil || out != pr {
		t.Fatalf("%+v %v", out, err)
	}
	st := StatsResp{Keys: 1, LockEntries: 2, FrozenLocks: 3, Versions: 4}
	if out, err := DecodeStatsResp(st.AppendTo(nil)); err != nil || out != st {
		t.Fatalf("%+v %v", out, err)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := WriteLockReq{Txn: 3, Key: "key", Set: timestamp.NewSet(timestamp.Point(ts(1, 1))), Value: []byte("v")}.AppendTo(nil)
	for cut := 0; cut < len(full); cut++ {
		if err := new(WriteLockReq).DecodeInto(full[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// Property: random interval sets round-trip exactly through the codec.
func TestQuickSetRoundTrip(t *testing.T) {
	gen := func(r *rand.Rand) timestamp.Set {
		var s timestamp.Set
		for i := 0; i < r.Intn(5); i++ {
			lo := int64(r.Intn(100))
			s = s.Add(timestamp.Span(ts(lo, int32(r.Intn(3))), ts(lo+int64(r.Intn(10)), int32(r.Intn(3)))))
		}
		return s
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := gen(r)
		var e Encoder
		e.Set(in)
		d := NewDecoder(e.Bytes())
		out := d.Set()
		return d.Err() == nil && out.Equal(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(r.Int63())
	}}); err != nil {
		t.Fatal(err)
	}
}

// Property: random strings and blobs round-trip through the codec.
func TestQuickPrimitivesRoundTrip(t *testing.T) {
	f := func(s string, b []byte, u uint64, i int64, p int32, flag bool) bool {
		var e Encoder
		e.Str(s)
		e.Blob(b)
		e.U64(u)
		e.I64(i)
		e.I32(p)
		e.Bool(flag)
		d := NewDecoder(e.Bytes())
		gs := d.Str()
		gb := d.Blob()
		gu := d.U64()
		gi := d.I64()
		gp := d.I32()
		gf := d.Bool()
		if d.Err() != nil {
			return false
		}
		return gs == s && bytes.Equal(gb, b) && gu == u && gi == i && gp == p && gf == flag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
