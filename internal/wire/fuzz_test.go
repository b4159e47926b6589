package wire

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// decoderCase names one message decoder for the fuzz dispatch: decode
// must never panic or over-read, whatever the bytes; when it succeeds,
// re-encoding the decoded message must also be safe.
type decoderCase struct {
	name   string
	decode func(b []byte) (Message, error)
}

// asMsg adapts a typed decoder to the generic shape.
func asMsg[M Message](f func([]byte) (M, error)) func([]byte) (Message, error) {
	return func(b []byte) (Message, error) { return f(b) }
}

// decoderCases lists every message decoder — a DecodeInto through the
// fresh adapter — in a fixed order so a fuzz input's selector byte keeps
// meaning across runs.
var decoderCases = []decoderCase{
	{"WriteLockReq", asMsg(fresh[WriteLockReq])},
	{"WriteLockResp", asMsg(DecodeWriteLockResp)},
	{"Ack", asMsg(DecodeAck)},
	{"DecideReq", asMsg(fresh[DecideReq])},
	{"DecideResp", asMsg(DecodeDecideResp)},
	{"PurgeReq", asMsg(DecodePurgeReq)},
	{"PurgeResp", asMsg(DecodePurgeResp)},
	{"StatsResp", asMsg(DecodeStatsResp)},
	{"WaitGraphResp", asMsg(DecodeWaitGraphResp)},
	{"VictimAbortReq", asMsg(fresh[VictimAbortReq])},
	{"WriteLockBatchReq", asMsg(fresh[WriteLockBatchReq])},
	{"WriteLockBatchResp", asMsg(DecodeWriteLockBatchResp)},
	{"FreezeBatchReq", asMsg(fresh[FreezeBatchReq])},
	{"FreezeBatchResp", asMsg(DecodeFreezeBatchResp)},
	{"ReleaseBatchReq", asMsg(fresh[ReleaseBatchReq])},
	{"ReadLockBatchReq", asMsg(fresh[ReadLockBatchReq])},
	{"ReadLockBatchResp", asMsg(fresh[ReadLockBatchResp])},
	{"SnapshotChunkReq", asMsg(DecodeSnapshotChunkReq)},
	{"SnapshotChunkResp", asMsg(DecodeSnapshotChunkResp)},
	{"LogTailReq", asMsg(DecodeLogTailReq)},
	{"LogTailResp", asMsg(fresh[LogTailResp])},
}

// exactCopy returns the input in a freshly sized allocation, so any
// decoder read past the input's bounds trips the race/ASAN bounds
// checks instead of silently reading slack capacity.
func exactCopy(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	return out
}

// FuzzDecodeMessages drives every message decoder with arbitrary bytes:
// truncated or corrupt bodies must return an error — never panic, hang,
// or read beyond the buffer (decoded pooled frames would leak another
// frame's bytes otherwise). Successful decodes must survive re-encoding,
// and a DecodeInto over a scratch the previous inputs left dirty must
// agree with itself over a fresh value on every input. Seeds come from
// the codec property tests' generators, so every decoder starts from
// valid encodings and the fuzzer mutates from there.
func FuzzDecodeMessages(f *testing.F) {
	names := make([]string, 0, len(codecCases))
	for name := range codecCases {
		names = append(names, name)
	}
	sort.Strings(names)
	r := rand.New(rand.NewSource(0x5eed))
	add := func(name string, m Message) {
		for which := range decoderCases {
			if decoderCases[which].name == name {
				f.Add(uint8(which), m.AppendTo(nil))
			}
		}
	}
	for _, name := range names {
		for i := 0; i < 4; i++ {
			add(name, Raw(codecCases[name](r).enc))
		}
	}
	// A single key travels as a batch of one; the generators above draw
	// that size only now and then, so seed it for each footprint batch.
	for i := 0; i < 4; i++ {
		k := []string{randWord(r)}
		add("ReadLockBatchReq", ReadLockBatchReq{Txn: r.Uint64(), Upper: randTS(r), Keys: k})
		add("ReadLockBatchResp", ReadLockBatchResp{Status: StatusOK, Results: []ReadLockResult{
			{Status: StatusOK, VersionTS: randTS(r), Value: randBlob(r), Got: randIv(r)},
		}})
		add("FreezeBatchReq", FreezeBatchReq{Txn: r.Uint64(), TS: randTS(r), WriteKeys: k})
		add("FreezeBatchReq", FreezeBatchReq{Txn: r.Uint64(), Reads: []FreezeReadItem{{Key: k[0], Lo: randTS(r), Hi: randTS(r)}}})
		add("ReleaseBatchReq", ReleaseBatchReq{Txn: r.Uint64(), Keys: k})
		add("ReleaseBatchReq", ReleaseBatchReq{Txn: r.Uint64(), Committed: true, TS: randTS(r), Keys: k, Reads: []FreezeReadItem{{Key: k[0], Lo: randTS(r), Hi: randTS(r)}}})
		add("DecideReq", DecideReq{Txn: r.Uint64(), Proposal: DecideCommit, TS: randTS(r), Keys: k, Reads: []FreezeReadItem{{Key: k[0], Lo: randTS(r), Hi: randTS(r)}}})
		add("DecideReq", DecideReq{Txn: r.Uint64(), Proposal: DecideAbort, WritesOnly: true, Keys: k})
	}
	twins := newIntoTwins()
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dc := decoderCases[int(which)%len(decoderCases)]
		if tw, ok := twins[dc.name]; ok {
			tw.check(t, dc.name, data)
		}
		m, err := dc.decode(exactCopy(data))
		if err != nil {
			return
		}
		// A decoded message must re-encode without panicking (nil is
		// possible only from a decoder bug — none return nil on success).
		if m == nil {
			t.Fatalf("%s: nil message with nil error", dc.name)
		}
		_ = m.AppendTo(nil)
	})
}

// FuzzReadFrame drives the frame reader with arbitrary byte streams: it
// must never panic or over-allocate, any strict truncation must error,
// and an accepted frame must re-emit to exactly the bytes consumed.
func FuzzReadFrame(f *testing.F) {
	// Seeds: valid frames of assorted sizes (including empty bodies),
	// a truncation, and a hostile length prefix.
	r := rand.New(rand.NewSource(0xf00d))
	for i := 0; i < 5; i++ {
		fb := GetFrameBuf()
		body := make([]byte, r.Intn(64))
		r.Read(body)
		if err := fb.SetFrame(r.Uint64(), MsgType(1+r.Intn(30)), Raw(body)); err != nil {
			f.Fatal(err)
		}
		var w sliceWriter
		if err := WriteFrame(&w, fb); err != nil {
			f.Fatal(err)
		}
		fb.Release()
		f.Add(w.b)
		if len(w.b) > 2 {
			f.Add(w.b[:len(w.b)-2])
		}
	}
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fb := GetFrameBuf()
		defer fb.Release()
		r := bytes.NewReader(data)
		if err := ReadFrame(r, fb); err != nil {
			return
		}
		consumed := len(data) - r.Len()
		if got := fb.WireLen(); got != consumed {
			t.Fatalf("frame claims %d wire bytes, reader consumed %d", got, consumed)
		}
		var w sliceWriter
		if err := WriteFrame(&w, fb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.b, data[:consumed]) {
			t.Fatalf("re-emitted frame differs from consumed bytes")
		}
	})
}
