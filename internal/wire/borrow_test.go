package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// inPlace is a message whose one decoder is a DecodeInto method, and
// intoMsg the same as a constraint on the pointer to its struct type M.
type inPlace interface {
	Message
	DecodeInto([]byte) error
}

type intoMsg[M any] interface {
	*M
	inPlace
}

// fresh decodes b into a new zero M: the test-only adapter that gives a
// DecodeInto message the shape of a Decode<T> function.
func fresh[M any, P intoMsg[M]](b []byte) (P, error) {
	m := P(new(M))
	return m, m.DecodeInto(b)
}

// intoTwin pairs a message's DecodeInto over a scratch that is reused,
// dirty, from one input to the next — the way a server connection or a
// pull loop reuses it — with its twin: the same method over a fresh zero
// value, which owns everything but its views.
type intoTwin struct {
	scratch inPlace
	fresh   func([]byte) (Message, error)
}

func twinOf[M any, P intoMsg[M]]() intoTwin {
	return intoTwin{scratch: P(new(M)), fresh: asMsg(fresh[M, P])}
}

// newIntoTwins lists every message with a DecodeInto, keyed like
// codecCases, each over a scratch of its own.
func newIntoTwins() map[string]intoTwin {
	return map[string]intoTwin{
		"WriteLockReq":      twinOf[WriteLockReq](),
		"VictimAbortReq":    twinOf[VictimAbortReq](),
		"ReadLockBatchReq":  twinOf[ReadLockBatchReq](),
		"ReadLockBatchResp": twinOf[ReadLockBatchResp](),
		"WriteLockBatchReq": twinOf[WriteLockBatchReq](),
		"FreezeBatchReq":    twinOf[FreezeBatchReq](),
		"ReleaseBatchReq":   twinOf[ReleaseBatchReq](),
		"DecideReq":         twinOf[DecideReq](),
		"LogTailResp":       twinOf[LogTailResp](),
	}
}

// check decodes data both ways and requires the same verdict and, on
// success, the same message: whatever the scratch held before, the two
// re-encode to the same bytes. It returns that re-encoding, or nil if
// data was rejected.
func (tw intoTwin) check(t *testing.T, name string, data []byte) []byte {
	t.Helper()
	clean, errFresh := tw.fresh(exactCopy(data))
	errDirty := tw.scratch.DecodeInto(exactCopy(data))
	if (errFresh == nil) != (errDirty == nil) {
		t.Fatalf("%s: DecodeInto says %v over a fresh value, %v over a used scratch", name, errFresh, errDirty)
	}
	if errFresh != nil {
		return nil
	}
	want := clean.AppendTo(nil)
	if got := tw.scratch.AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: DecodeInto over a used scratch re-encodes to %x, over a fresh value to %x", name, got, want)
	}
	return want
}

// TestRequestDecodeIntoMatchesOwningTwin holds every DecodeInto to "all
// fields are overwritten": over valid encodings, every truncation of
// them, and corrupt item counts, one scratch per message type reused
// throughout — so each decode lands on the leftovers of a message of
// another shape — gives the verdict and the message of its twin.
func TestRequestDecodeIntoMatchesOwningTwin(t *testing.T) {
	for name, tw := range newIntoTwins() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(0xb0b + int64(len(name))))
			for i := 0; i < 200; i++ {
				c := codecCases[name](r)
				if got := tw.check(t, name, c.enc); !bytes.Equal(got, c.enc) {
					t.Fatalf("iteration %d: round trip gives %x, want %x", i, got, c.enc)
				}
				if i%10 != 0 {
					continue
				}
				for cut := 0; cut < len(c.enc); cut++ {
					if tw.check(t, name, c.enc[:cut]) != nil {
						t.Fatalf("iteration %d: truncation at %d/%d not detected", i, cut, len(c.enc))
					}
				}
				// Overwrite each 4-byte window with a huge and a
				// negative count: whichever of them is an item count must
				// be rejected before anything is sized by it.
				for off := 0; off+4 <= len(c.enc); off++ {
					for _, n := range [][4]byte{{0, 0, 0, 0x40}, {0xfe, 0xff, 0xff, 0xff}} {
						bad := bytes.Clone(c.enc)
						copy(bad[off:], n[:])
						tw.check(t, name, bad)
					}
				}
			}
		})
	}
}

// TestRequestDecodeIntoZeroAlloc gates the server's request decode: over
// a scratch that has grown to the request's size, DecodeInto allocates
// nothing — keys are views, not copies.
func TestRequestDecodeIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := []string{"user:0001", "user:0002", "user:0003", "user:0004"}
	set := timestamp.NewSet(timestamp.Span(timestamp.New(100, 1), timestamp.New(5100, 1)))
	read := ReadLockBatchReq{Txn: 7, Upper: timestamp.New(5100, 1), Keys: keys}.AppendTo(nil)
	write := WriteLockBatchReq{Txn: 7, DecisionSrv: "srv-0", Items: []WriteLockItem{
		{Key: keys[0], Set: set, Value: make([]byte, 64)}, {Key: keys[1], Set: set, Value: make([]byte, 64)},
	}}.AppendTo(nil)
	reads := []FreezeReadItem{
		{Key: keys[2], Lo: timestamp.New(1, 0), Hi: timestamp.New(100, 1)}, {Key: keys[3], Lo: timestamp.New(1, 0), Hi: timestamp.New(100, 1)},
	}
	freeze := FreezeBatchReq{Txn: 7, TS: timestamp.New(100, 1), WriteKeys: keys[:2], Reads: reads}.AppendTo(nil)
	release := ReleaseBatchReq{Txn: 7, Committed: true, TS: timestamp.New(100, 1), Keys: keys, Reads: reads}.AppendTo(nil)
	decide := DecideReq{Txn: 7, Proposal: DecideCommit, TS: timestamp.New(100, 1), Keys: keys, Reads: reads}.AppendTo(nil)

	var (
		readReq    ReadLockBatchReq
		writeReq   WriteLockBatchReq
		freezeReq  FreezeBatchReq
		releaseReq ReleaseBatchReq
		decideReq  DecideReq
	)
	decodeAll := func() {
		if err := readReq.DecodeInto(read); err != nil || len(readReq.Keys) != 4 {
			t.Fatalf("read-lock batch: %v %d", err, len(readReq.Keys))
		}
		if err := writeReq.DecodeInto(write); err != nil || len(writeReq.Items) != 2 || writeReq.DecisionSrv != "srv-0" {
			t.Fatalf("write-lock batch: %v %+v", err, writeReq)
		}
		if err := freezeReq.DecodeInto(freeze); err != nil || len(freezeReq.WriteKeys) != 2 || len(freezeReq.Reads) != 2 {
			t.Fatalf("freeze batch: %v %+v", err, freezeReq)
		}
		if err := releaseReq.DecodeInto(release); err != nil || releaseReq.Keys[3] != keys[3] || len(releaseReq.Reads) != 2 {
			t.Fatalf("release batch: %v %+v", err, releaseReq)
		}
		if err := decideReq.DecodeInto(decide); err != nil || decideReq.Keys[3] != keys[3] || len(decideReq.Reads) != 2 {
			t.Fatalf("decide: %v %+v", err, decideReq)
		}
	}
	decodeAll()
	if n := testing.AllocsPerRun(200, decodeAll); n != 0 {
		t.Errorf("request DecodeInto over a warmed scratch: %v allocs/op, want 0", n)
	}
}
