package wire

import "testing"

// TestFramePathZeroAlloc is the deterministic alloc-regression gate
// behind the FramePath benchmarks: the steady-state frame paths —
// append-encode into a pooled buffer + vectored write, and framed read
// + in-place decode — must not allocate at all. It runs on every plain
// `go test`, so a regression fails CI even before the benchmark step.
func TestFramePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	resp := benchReadResp(1024)
	single := benchSingleReadResp()

	fb := GetFrameBuf()
	defer fb.Release()
	w := &nullWriter{}
	if n := testing.AllocsPerRun(200, func() {
		if err := fb.SetFrame(9, TReadLockBatchResp, &resp); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(w, fb); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encode+write: %v allocs/op, want 0", n)
	}

	r := &loopReader{data: encodeRawFrame(t, TReadLockBatchResp, &resp)}
	var out ReadLockBatchResp
	if n := testing.AllocsPerRun(200, func() {
		if err := ReadFrame(r, fb); err != nil {
			t.Fatal(err)
		}
		if err := out.DecodeInto(fb.Body()); err != nil || len(out.Results) != 16 {
			t.Fatalf("%v %d", err, len(out.Results))
		}
	}); n != 0 {
		t.Errorf("read+decode (batch): %v allocs/op, want 0", n)
	}

	r2 := &loopReader{data: encodeRawFrame(t, TReadLockBatchResp, &single)}
	if n := testing.AllocsPerRun(200, func() {
		if err := ReadFrame(r2, fb); err != nil {
			t.Fatal(err)
		}
		if err := out.DecodeInto(fb.Body()); err != nil || len(out.Results) != 1 || len(out.Results[0].Value) != 1024 {
			t.Fatalf("%v %d", err, len(out.Results))
		}
	}); n != 0 {
		t.Errorf("read+decode (single): %v allocs/op, want 0", n)
	}

	// The replica catch-up stream rides the same path: encode a log-tail
	// frame from a pooled buffer and decode it in place with record
	// reuse. Both directions must stay allocation-free.
	tail := benchLogTailResp(1024)
	if n := testing.AllocsPerRun(200, func() {
		if err := fb.SetFrame(11, TLogTailResp, &tail); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(w, fb); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encode+write (log tail): %v allocs/op, want 0", n)
	}
	r3 := &loopReader{data: encodeRawFrame(t, TLogTailResp, &tail)}
	var tailOut LogTailResp
	if n := testing.AllocsPerRun(200, func() {
		if err := ReadFrame(r3, fb); err != nil {
			t.Fatal(err)
		}
		if err := tailOut.DecodeInto(fb.Body()); err != nil || len(tailOut.Records) != 32 {
			t.Fatalf("%v %d", err, len(tailOut.Records))
		}
	}); n != 0 {
		t.Errorf("read+decode (log tail): %v allocs/op, want 0", n)
	}
}

// encodeRawFrame renders one frame to raw bytes.
func encodeRawFrame(tb testing.TB, t MsgType, m Message) []byte {
	tb.Helper()
	fb := GetFrameBuf()
	defer fb.Release()
	if err := fb.SetFrame(7, t, m); err != nil {
		tb.Fatal(err)
	}
	var w sliceWriter
	if err := WriteFrame(&w, fb); err != nil {
		tb.Fatal(err)
	}
	return w.b
}
