package wire

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// --- random payload generators ----------------------------------------------

func randTS(r *rand.Rand) timestamp.Timestamp {
	return timestamp.New(r.Int63n(1_000_000), int32(r.Intn(64)-32))
}

func randIv(r *rand.Rand) timestamp.Interval {
	lo := r.Int63n(1000)
	return timestamp.Span(timestamp.New(lo, 0), timestamp.New(lo+r.Int63n(50), 0))
}

func randTSSet(r *rand.Rand) timestamp.Set {
	var s timestamp.Set
	for i, n := 0, r.Intn(5); i < n; i++ {
		s.AddInPlace(randIv(r))
	}
	return s
}

func randWord(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randWords(r *rand.Rand) []string {
	var out []string
	for i, n := 0, r.Intn(6); i < n; i++ {
		out = append(out, randWord(r))
	}
	return out
}

func randFreezeReads(r *rand.Rand) []FreezeReadItem {
	var out []FreezeReadItem
	for i, n := 0, r.Intn(6); i < n; i++ {
		out = append(out, FreezeReadItem{Key: randWord(r), Lo: randTS(r), Hi: randTS(r)})
	}
	return out
}

func randBlob(r *rand.Rand) []byte {
	if r.Intn(4) == 0 {
		return nil
	}
	b := make([]byte, r.Intn(20))
	r.Read(b)
	return b
}

func randStatus(r *rand.Rand) Status { return Status(1 + r.Intn(8)) }

func randAck(r *rand.Rand) Ack { return Ack{Status: randStatus(r), Err: randWord(r)} }

func randEdges(r *rand.Rand) []WaitEdge {
	var out []WaitEdge
	for i, n := 0, r.Intn(5); i < n; i++ {
		out = append(out, WaitEdge{Waiter: r.Uint64(), Holder: r.Uint64(), Key: randWord(r)})
	}
	return out
}

// --- generic round-trip / truncation harness ---------------------------------

// codecCase generates one random message instance: enc is its encoding,
// recheck decodes a buffer and reports whether it equals the instance.
type codecCase struct {
	enc     []byte
	recheck func([]byte) (bool, error)
}

var codecCases = map[string]func(r *rand.Rand) codecCase{
	"WriteLockReq": func(r *rand.Rand) codecCase {
		in := WriteLockReq{Txn: r.Uint64(), Epoch: r.Uint64(), Key: randWord(r), DecisionSrv: randWord(r), Set: randTSSet(r), Wait: r.Intn(2) == 0, Value: randBlob(r)}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[WriteLockReq](b)
			ok := out.Txn == in.Txn && out.Epoch == in.Epoch && out.Key == in.Key && out.DecisionSrv == in.DecisionSrv &&
				out.Set.Equal(in.Set) && out.Wait == in.Wait && bytes.Equal(out.Value, in.Value)
			return ok, err
		}}
	},
	"WriteLockResp": func(r *rand.Rand) codecCase {
		in := WriteLockResp{Status: randStatus(r), Err: randWord(r), Got: randTSSet(r), Denied: randTSSet(r)}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeWriteLockResp(b)
			ok := out.Status == in.Status && out.Err == in.Err && out.Got.Equal(in.Got) && out.Denied.Equal(in.Denied)
			return ok, err
		}}
	},
	"Ack": func(r *rand.Rand) codecCase {
		in := randAck(r)
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeAck(b)
			return out == in, err
		}}
	},
	"DecideReq": func(r *rand.Rand) codecCase {
		in := DecideReq{Txn: r.Uint64(), Epoch: r.Uint64(), Proposal: DecisionKind(1 + r.Intn(2)), TS: randTS(r), WritesOnly: r.Intn(2) == 0}
		in.Keys, in.Reads = randWords(r), randFreezeReads(r)
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[DecideReq](b)
			ok := out.Txn == in.Txn && out.Epoch == in.Epoch && out.Proposal == in.Proposal && out.TS == in.TS &&
				out.WritesOnly == in.WritesOnly && slices.Equal(out.Keys, in.Keys) && slices.Equal(out.Reads, in.Reads)
			return ok, err
		}}
	},
	"DecideResp": func(r *rand.Rand) codecCase {
		in := DecideResp{Status: randStatus(r), Err: randWord(r), Kind: DecisionKind(1 + r.Intn(2)), TS: randTS(r)}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeDecideResp(b)
			return out == in, err
		}}
	},
	"PurgeReq": func(r *rand.Rand) codecCase {
		in := PurgeReq{Bound: randTS(r)}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodePurgeReq(b)
			return out == in, err
		}}
	},
	"PurgeResp": func(r *rand.Rand) codecCase {
		in := PurgeResp{Status: randStatus(r), Err: randWord(r), Versions: r.Int63(), Locks: r.Int63()}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodePurgeResp(b)
			return out == in, err
		}}
	},
	"StatsResp": func(r *rand.Rand) codecCase {
		in := StatsResp{
			Keys: r.Int63(), LockEntries: r.Int63(), FrozenLocks: r.Int63(), Versions: r.Int63(),
			LiveTxns: r.Int63(), PurgedTxns: r.Int63(),
			ReplEpoch: r.Int63(), ReplPromotions: r.Int63(),
			ReplWrongEpoch: r.Int63(), ReplCatchupBytes: r.Int63(),
		}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeStatsResp(b)
			return out == in, err
		}}
	},
	"WaitGraphResp": func(r *rand.Rand) codecCase {
		in := WaitGraphResp{Edges: randEdges(r)}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeWaitGraphResp(b)
			return slices.Equal(out.Edges, in.Edges), err
		}}
	},
	"VictimAbortReq": func(r *rand.Rand) codecCase {
		in := VictimAbortReq{Txn: r.Uint64(), Key: randWord(r)}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[VictimAbortReq](b)
			return *out == in, err
		}}
	},
	"WriteLockBatchReq": func(r *rand.Rand) codecCase {
		in := WriteLockBatchReq{Txn: r.Uint64(), Epoch: r.Uint64(), DecisionSrv: randWord(r), Wait: r.Intn(2) == 0}
		for i, n := 0, r.Intn(6); i < n; i++ {
			in.Items = append(in.Items, WriteLockItem{Key: randWord(r), Set: randTSSet(r), Value: randBlob(r)})
		}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[WriteLockBatchReq](b)
			ok := out.Txn == in.Txn && out.Epoch == in.Epoch && out.DecisionSrv == in.DecisionSrv && out.Wait == in.Wait &&
				len(out.Items) == len(in.Items)
			if ok {
				for i := range in.Items {
					ok = ok && out.Items[i].Key == in.Items[i].Key &&
						out.Items[i].Set.Equal(in.Items[i].Set) &&
						bytes.Equal(out.Items[i].Value, in.Items[i].Value)
				}
			}
			return ok, err
		}}
	},
	"WriteLockBatchResp": func(r *rand.Rand) codecCase {
		in := WriteLockBatchResp{Status: randStatus(r), Err: randWord(r)}
		for i, n := 0, r.Intn(6); i < n; i++ {
			in.Results = append(in.Results, WriteLockResult{Status: randStatus(r), Err: randWord(r), Got: randTSSet(r), Denied: randTSSet(r)})
		}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[WriteLockBatchResp](b)
			ok := out.Status == in.Status && out.Err == in.Err && len(out.Results) == len(in.Results)
			if ok {
				for i := range in.Results {
					ok = ok && out.Results[i].Status == in.Results[i].Status &&
						out.Results[i].Err == in.Results[i].Err &&
						out.Results[i].Got.Equal(in.Results[i].Got) &&
						out.Results[i].Denied.Equal(in.Results[i].Denied)
				}
			}
			return ok, err
		}}
	},
	"FreezeBatchReq": func(r *rand.Rand) codecCase {
		in := FreezeBatchReq{Txn: r.Uint64(), Epoch: r.Uint64(), TS: randTS(r)}
		in.WriteKeys, in.Reads = randWords(r), randFreezeReads(r)
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[FreezeBatchReq](b)
			ok := out.Txn == in.Txn && out.Epoch == in.Epoch && out.TS == in.TS &&
				slices.Equal(out.WriteKeys, in.WriteKeys) && slices.Equal(out.Reads, in.Reads)
			return ok, err
		}}
	},
	"ReadLockBatchReq": func(r *rand.Rand) codecCase {
		in := ReadLockBatchReq{Txn: r.Uint64(), Epoch: r.Uint64(), Upper: randTS(r), Wait: r.Intn(2) == 0}
		in.Keys = randWords(r)
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[ReadLockBatchReq](b)
			ok := out.Txn == in.Txn && out.Epoch == in.Epoch && out.Upper == in.Upper && out.Wait == in.Wait &&
				slices.Equal(out.Keys, in.Keys)
			return ok, err
		}}
	},
	"ReadLockBatchResp": func(r *rand.Rand) codecCase {
		in := ReadLockBatchResp{Status: randStatus(r), Err: randWord(r)}
		for i, n := 0, r.Intn(6); i < n; i++ {
			in.Results = append(in.Results, ReadLockResult{
				Status: randStatus(r), Err: randWord(r), VersionTS: randTS(r), Value: randBlob(r), Got: randIv(r),
			})
		}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[ReadLockBatchResp](b)
			ok := out.Status == in.Status && out.Err == in.Err && len(out.Results) == len(in.Results)
			if ok {
				for i := range in.Results {
					ok = ok && out.Results[i].Status == in.Results[i].Status &&
						out.Results[i].Err == in.Results[i].Err &&
						out.Results[i].VersionTS == in.Results[i].VersionTS &&
						bytes.Equal(out.Results[i].Value, in.Results[i].Value) &&
						(out.Results[i].Value == nil) == (in.Results[i].Value == nil) &&
						out.Results[i].Got == in.Results[i].Got
				}
			}
			return ok, err
		}}
	},
	"ReleaseBatchReq": func(r *rand.Rand) codecCase {
		in := ReleaseBatchReq{Txn: r.Uint64(), Epoch: r.Uint64(), WritesOnly: r.Intn(2) == 0, Committed: r.Intn(2) == 0, TS: randTS(r)}
		in.Keys, in.Reads = randWords(r), randFreezeReads(r)
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[ReleaseBatchReq](b)
			ok := out.Txn == in.Txn && out.Epoch == in.Epoch && out.WritesOnly == in.WritesOnly &&
				out.Committed == in.Committed && out.TS == in.TS && slices.Equal(out.Keys, in.Keys) &&
				slices.Equal(out.Reads, in.Reads)
			return ok, err
		}}
	},
	"SnapshotChunkReq": func(r *rand.Rand) codecCase {
		in := SnapshotChunkReq{Epoch: r.Uint64(), Cursor: r.Uint64(), MaxKeys: uint32(r.Intn(1 << 16))}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeSnapshotChunkReq(b)
			return out == in, err
		}}
	},
	"SnapshotChunkResp": func(r *rand.Rand) codecCase {
		in := SnapshotChunkResp{
			Status: randStatus(r), Err: randWord(r), Epoch: r.Uint64(),
			NextCursor: r.Uint64(), LSN: r.Uint64(), Records: randReplRecords(r),
		}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeSnapshotChunkResp(b)
			ok := out.Status == in.Status && out.Err == in.Err && out.Epoch == in.Epoch &&
				out.NextCursor == in.NextCursor && out.LSN == in.LSN &&
				replRecordsEqual(out.Records, in.Records)
			return ok, err
		}}
	},
	"LogTailReq": func(r *rand.Rand) codecCase {
		in := LogTailReq{Epoch: r.Uint64(), From: r.Uint64(), MaxRecords: uint32(r.Intn(1 << 16))}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := DecodeLogTailReq(b)
			return out == in, err
		}}
	},
	"LogTailResp": func(r *rand.Rand) codecCase {
		in := LogTailResp{
			Status: randStatus(r), Err: randWord(r), Epoch: r.Uint64(),
			NextLSN: r.Uint64(), SnapshotNeeded: r.Intn(2) == 0, Records: randReplRecords(r),
		}
		return codecCase{in.AppendTo(nil), func(b []byte) (bool, error) {
			out, err := fresh[LogTailResp](b)
			ok := out.Status == in.Status && out.Err == in.Err && out.Epoch == in.Epoch &&
				out.NextLSN == in.NextLSN && out.SnapshotNeeded == in.SnapshotNeeded &&
				replRecordsEqual(out.Records, in.Records)
			return ok, err
		}}
	},
}

func randReplRecords(r *rand.Rand) []ReplRecord {
	var out []ReplRecord
	for i, n := 0, r.Intn(5); i < n; i++ {
		out = append(out, ReplRecord{LSN: r.Uint64(), Key: []byte(randWord(r)), TS: randTS(r), Value: randBlob(r)})
	}
	return out
}

func replRecordsEqual(a, b []ReplRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LSN != b[i].LSN || !bytes.Equal(a[i].Key, b[i].Key) || a[i].TS != b[i].TS ||
			!bytes.Equal(a[i].Value, b[i].Value) || (a[i].Value == nil) != (b[i].Value == nil) {
			return false
		}
	}
	return true
}

// TestAllMessagesRoundTripRandom drives every message codec with random
// payloads: the decode of an encode must reproduce the message exactly.
func TestAllMessagesRoundTripRandom(t *testing.T) {
	for name, gen := range codecCases {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(0xbadc + int64(len(name))))
			for i := 0; i < 300; i++ {
				c := gen(r)
				ok, err := c.recheck(c.enc)
				if err != nil {
					t.Fatalf("iteration %d: decode: %v", i, err)
				}
				if !ok {
					t.Fatalf("iteration %d: round trip mismatch", i)
				}
			}
		})
	}
}

// TestAllMessagesRejectTruncation checks that decoding any strict prefix
// of a valid encoding reports an error instead of fabricating fields.
func TestAllMessagesRejectTruncation(t *testing.T) {
	for name, gen := range codecCases {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 50; i++ {
				c := gen(r)
				for cut := 0; cut < len(c.enc); cut++ {
					if _, err := c.recheck(c.enc[:cut]); err == nil {
						t.Fatalf("iteration %d: truncation at %d/%d not detected", i, cut, len(c.enc))
					}
				}
			}
		})
	}
}

// TestBatchDecodersRejectHugeCounts checks the item-count guards: a
// small buffer claiming an enormous batch must fail fast, not allocate.
func TestBatchDecodersRejectHugeCounts(t *testing.T) {
	var e Encoder
	e.U64(1)       // txn
	e.U64(0)       // epoch
	e.Str("")      // decision server
	e.Bool(false)  // wait
	e.I32(1 << 30) // absurd item count
	if _, err := fresh[WriteLockBatchReq](e.Bytes()); err == nil {
		t.Fatal("huge item count not rejected")
	}
	var e2 Encoder
	e2.U64(1)
	e2.U64(0)
	e2.Bool(false)
	e2.I32(-1)
	if _, err := fresh[ReleaseBatchReq](e2.Bytes()); err == nil {
		t.Fatal("negative key count not rejected")
	}
	var e3 Encoder
	e3.status(StatusOK)
	e3.Str("")     // err
	e3.U64(1)      // epoch
	e3.U64(1)      // next lsn
	e3.Bool(false) // snapshot needed
	e3.I32(1 << 30)
	if _, err := fresh[LogTailResp](e3.Bytes()); err == nil {
		t.Fatal("huge record count not rejected")
	}
}
