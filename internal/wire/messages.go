package wire

import (
	"fmt"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Status codes carried by responses.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota + 1
	// StatusConflict reports an unfrozen conflicting lock (retry may
	// succeed).
	StatusConflict
	// StatusFrozen reports a frozen conflicting lock (permanent).
	StatusFrozen
	// StatusPurged reports that the needed version was purged.
	StatusPurged
	// StatusAborted reports the transaction was decided aborted.
	StatusAborted
	// StatusError carries a generic error message.
	StatusError
	// StatusDeadlock reports the request's transaction was chosen as a
	// deadlock victim (locally by the server's wait-for graph, or
	// remotely via a VictimAbortReq). Unlike StatusConflict it calls
	// for an immediate retry with a fresh transaction — the conflicting
	// work was aborted on purpose, not still running.
	StatusDeadlock
	// StatusWrongEpoch reports that the request's membership epoch does
	// not match the server's, or that the server is not the partition
	// head: the coordinator's route is stale (the partition failed over).
	// Retryable — the coordinator refreshes its route from the membership
	// authority and restarts the transaction against the new head.
	StatusWrongEpoch
)

// WriteLockReq asks the server to write-lock a subset of Set for the
// transaction and buffer Value as the pending write (Alg. 13,
// receive-write-lock-message). DecisionSrv names the server hosting the
// transaction's commitment object, so that a timeout on this server can
// reach consensus on aborting (§H.1). Epoch is the coordinator's cached
// membership epoch for the partition (0 on unreplicated clusters); a
// mismatch is answered with StatusWrongEpoch.
type WriteLockReq struct {
	Txn         uint64
	Epoch       uint64
	Key         string
	DecisionSrv string
	Set         timestamp.Set
	Wait        bool
	Value       []byte
}

// AppendTo implements Message.
func (m WriteLockReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.Str(m.Key)
	e.Str(m.DecisionSrv)
	e.Set(m.Set)
	e.Bool(m.Wait)
	e.Blob(m.Value)
	return e.buf
}

// DecodeInto deserializes into m. Key, DecisionSrv and Value are
// borrowed views of b.
func (m *WriteLockReq) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	*m = WriteLockReq{
		Txn:         d.U64(),
		Epoch:       d.U64(),
		Key:         d.StrView(),
		DecisionSrv: d.StrView(),
		Set:         d.Set(),
		Wait:        d.Bool(),
		Value:       d.Blob(),
	}
	return d.Err()
}

// WriteLockResp answers a WriteLockReq with the acquired and denied
// subsets.
type WriteLockResp struct {
	Status Status
	Err    string
	Got    timestamp.Set
	Denied timestamp.Set
}

// AppendTo implements Message.
func (m WriteLockResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.buf = append(e.buf, byte(m.Status))
	e.Str(m.Err)
	e.Set(m.Got)
	e.Set(m.Denied)
	return e.buf
}

// DecodeWriteLockResp deserializes a WriteLockResp.
func DecodeWriteLockResp(b []byte) (WriteLockResp, error) {
	d := NewDecoder(b)
	var m WriteLockResp
	st := d.take(1)
	if st != nil {
		m.Status = Status(st[0])
	}
	m.Err = d.Str()
	m.Got = d.Set()
	m.Denied = d.Set()
	return m, d.Err()
}

// Ack is the generic status-only response.
type Ack struct {
	Status Status
	Err    string
}

// AppendTo implements Message.
func (m Ack) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.buf = append(e.buf, byte(m.Status))
	e.Str(m.Err)
	return e.buf
}

// DecodeAck deserializes an Ack.
func DecodeAck(b []byte) (Ack, error) {
	d := NewDecoder(b)
	var m Ack
	st := d.take(1)
	if st != nil {
		m.Status = Status(st[0])
	}
	m.Err = d.Str()
	return m, d.Err()
}

// DecisionKind is a commitment-object outcome (§H).
type DecisionKind uint8

// Decision kinds.
const (
	DecideCommit DecisionKind = iota + 1
	DecideAbort
)

// String renders the kind.
func (k DecisionKind) String() string {
	switch k {
	case DecideCommit:
		return "commit"
	case DecideAbort:
		return "abort"
	default:
		return fmt.Sprintf("decision(%d)", uint8(k))
	}
}

// DecideReq proposes an outcome for a transaction to its commitment
// object (hosted at the decision server). The reply carries the agreed
// decision, which may differ from the proposal. Epoch is the
// coordinator's cached membership epoch for the decision server's
// partition; 0 bypasses the epoch fence — abort proposals, a server's
// (the suspicion scanner) or a coordinator's, track no epoch, and
// accepting them anywhere is safe because abort is the default outcome.
//
// The decision server is usually a footprint server too, and the
// proposal then carries its share of the transaction's tail, so that a
// single-server transaction ends in this one frame: when the decision
// equals the proposal, the server goes on to serve the ReleaseBatchReq
// {Txn, Epoch, WritesOnly, Committed: decided commit, TS, Keys, Reads}.
// A proposal the fence turns away, or one that loses to an earlier
// decision, applies none of it.
type DecideReq struct {
	Txn      uint64
	Epoch    uint64
	Proposal DecisionKind
	TS       timestamp.Timestamp
	// The release batch riding along; Keys and Reads both empty: none.
	WritesOnly bool
	Keys       []string
	Reads      []FreezeReadItem
}

// AppendTo implements Message.
func (m DecideReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.U64(m.Epoch)
	e.buf = append(e.buf, byte(m.Proposal))
	e.TS(m.TS)
	e.Bool(m.WritesOnly)
	e.StrSlice(m.Keys)
	e.freezeReads(m.Reads)
	return e.buf
}

// DecodeInto deserializes into m, reusing the capacity of m.Keys and
// m.Reads. Every field is overwritten; all keys are borrowed views of b.
func (m *DecideReq) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	m.Txn, m.Epoch, m.Proposal = d.U64(), d.U64(), 0
	if k := d.take(1); k != nil {
		m.Proposal = DecisionKind(k[0])
	}
	m.TS, m.WritesOnly = d.TS(), d.Bool()
	m.Keys = d.strViewsInto(m.Keys)
	m.Reads = d.freezeReadsInto(m.Reads)
	return d.Err()
}

// DecideResp carries the agreed outcome. Status distinguishes a real
// decision (StatusOK) from a request-level failure such as a malformed
// frame (StatusError) — previously a decode failure was reported as a
// zero-valued "abort" decision, indistinguishable from the commitment
// object actually deciding abort.
type DecideResp struct {
	Status Status
	Err    string
	Kind   DecisionKind
	TS     timestamp.Timestamp
}

// AppendTo implements Message.
func (m DecideResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.buf = append(e.buf, byte(m.Kind))
	e.TS(m.TS)
	return e.buf
}

// DecodeDecideResp deserializes a DecideResp.
func DecodeDecideResp(b []byte) (DecideResp, error) {
	d := NewDecoder(b)
	var m DecideResp
	m.Status = d.status()
	m.Err = d.Str()
	k := d.take(1)
	if k != nil {
		m.Kind = DecisionKind(k[0])
	}
	m.TS = d.TS()
	return m, d.Err()
}

// PurgeReq tells the server to discard versions and frozen lock state
// below Bound (issued by the timestamp service, §8.1).
type PurgeReq struct {
	Bound timestamp.Timestamp
}

// AppendTo implements Message.
func (m PurgeReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.TS(m.Bound)
	return e.buf
}

// DecodePurgeReq deserializes a PurgeReq.
func DecodePurgeReq(b []byte) (PurgeReq, error) {
	d := NewDecoder(b)
	m := PurgeReq{Bound: d.TS()}
	return m, d.Err()
}

// PurgeResp reports how much state was discarded. Status distinguishes
// a successful purge from a request-level failure — previously a decode
// failure was reported as a zero-valued success ("purged 0, OK").
type PurgeResp struct {
	Status   Status
	Err      string
	Versions int64
	Locks    int64
}

// AppendTo implements Message.
func (m PurgeResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.status(m.Status)
	e.Str(m.Err)
	e.I64(m.Versions)
	e.I64(m.Locks)
	return e.buf
}

// DecodePurgeResp deserializes a PurgeResp.
func DecodePurgeResp(b []byte) (PurgeResp, error) {
	d := NewDecoder(b)
	m := PurgeResp{Status: d.status(), Err: d.Str(), Versions: d.I64(), Locks: d.I64()}
	return m, d.Err()
}

// StatsResp reports the server's state size (Figure 6). The request has
// an empty body.
type StatsResp struct {
	Keys        int64
	LockEntries int64
	FrozenLocks int64
	Versions    int64
	// LiveTxns is the number of transaction-state records currently
	// retained; PurgedTxns counts records garbage-collected since the
	// server started. Together they verify that finished-transaction GC
	// keeps memory bounded under sustained load.
	LiveTxns   int64
	PurgedTxns int64
	// Replication state (zero on unreplicated servers): the server's
	// membership epoch and the metrics.ReplCounters totals — promotions
	// served, wrong-epoch frames rejected, catch-up bytes streamed.
	ReplEpoch        int64
	ReplPromotions   int64
	ReplWrongEpoch   int64
	ReplCatchupBytes int64
}

// AppendTo implements Message.
func (m StatsResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.I64(m.Keys)
	e.I64(m.LockEntries)
	e.I64(m.FrozenLocks)
	e.I64(m.Versions)
	e.I64(m.LiveTxns)
	e.I64(m.PurgedTxns)
	e.I64(m.ReplEpoch)
	e.I64(m.ReplPromotions)
	e.I64(m.ReplWrongEpoch)
	e.I64(m.ReplCatchupBytes)
	return e.buf
}

// DecodeStatsResp deserializes a StatsResp.
func DecodeStatsResp(b []byte) (StatsResp, error) {
	d := NewDecoder(b)
	m := StatsResp{
		Keys: d.I64(), LockEntries: d.I64(), FrozenLocks: d.I64(), Versions: d.I64(),
		LiveTxns: d.I64(), PurgedTxns: d.I64(),
		ReplEpoch: d.I64(), ReplPromotions: d.I64(),
		ReplWrongEpoch: d.I64(), ReplCatchupBytes: d.I64(),
	}
	return m, d.Err()
}

// WaitEdge is one wait-for edge exported by a server: transaction
// Waiter is blocked on a lock held by transaction Holder, on Key. A
// coordinator unions the edges of every server into the global
// wait-for graph; Key names the server where the waiter is parked, so a
// victim abort can be routed there.
type WaitEdge struct {
	Waiter uint64
	Holder uint64
	Key    string
}

// WaitGraphResp answers a TWaitGraphReq (whose body is empty) with a
// snapshot of the server's local wait-for edges. It is the only way
// edges leave a server: a coordinator polls every head while one of its
// lock requests waits, and assembles the cross-server wait-for graph.
type WaitGraphResp struct {
	Edges []WaitEdge
}

// AppendTo implements Message.
func (m WaitGraphResp) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.I32(int32(len(m.Edges)))
	for _, x := range m.Edges {
		e.U64(x.Waiter)
		e.U64(x.Holder)
		e.Str(x.Key)
	}
	return e.buf
}

// DecodeWaitGraphResp deserializes a WaitGraphResp.
func DecodeWaitGraphResp(b []byte) (WaitGraphResp, error) {
	d := NewDecoder(b)
	var m WaitGraphResp
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		m.Edges = append(m.Edges, WaitEdge{Waiter: d.U64(), Holder: d.U64(), Key: d.Str()})
	}
	if d.err != nil {
		return WaitGraphResp{}, d.err
	}
	return m, nil
}

// VictimAbortReq tells the server that transaction Txn — currently
// parked there, blocked on Key — was chosen as the victim of a
// confirmed cross-server deadlock cycle (deterministically, the lowest
// transaction id in the cycle). The server proposes abort through the
// transaction's commitment object (the existing decide path) and wakes
// the parked acquisition with a deadlock error, so the victim's
// coordinator aborts and retries instead of sleeping out the lock-wait
// timeout. The reply is an Ack (TVictimAbortResp).
type VictimAbortReq struct {
	Txn uint64
	Key string
}

// AppendTo implements Message.
func (m VictimAbortReq) AppendTo(buf []byte) []byte {
	e := Encoder{buf: buf}
	e.U64(m.Txn)
	e.Str(m.Key)
	return e.buf
}

// DecodeInto deserializes into m. Key is a borrowed view of b.
func (m *VictimAbortReq) DecodeInto(b []byte) error {
	d := NewDecoder(b)
	*m = VictimAbortReq{Txn: d.U64(), Key: d.StrView()}
	return d.Err()
}
