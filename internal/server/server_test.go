package server_test

import (
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// rawClient drives a server with hand-built frames, testing the handler
// layer beneath the coordinator abstraction.
type rawClient struct {
	t    *testing.T
	conn transport.Conn
	next uint64
}

func dialRaw(t *testing.T, n transport.Network, addr string) *rawClient {
	t.Helper()
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawClient{t: t, conn: conn, next: 1}
}

// call sends m as one frame and returns the response frame. Response
// buffers are deliberately never released back to the pool here, so
// decoded views in the tests stay valid for the test's lifetime.
func (c *rawClient) call(mt wire.MsgType, m wire.Message) *wire.FrameBuf {
	c.t.Helper()
	id := c.send(mt, m)
	f := c.recv()
	if f.ID() != id {
		c.t.Fatalf("response id %d for request %d", f.ID(), id)
	}
	return f
}

// send enqueues m as one frame without waiting for its response, so
// tests can pipeline requests on the connection.
func (c *rawClient) send(mt wire.MsgType, m wire.Message) uint64 {
	c.t.Helper()
	id := c.next
	c.next++
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(id, mt, m); err != nil {
		c.t.Fatal(err)
	}
	if err := c.conn.Send(fb); err != nil {
		c.t.Fatal(err)
	}
	return id
}

// recv returns the next response frame on the connection.
func (c *rawClient) recv() *wire.FrameBuf {
	c.t.Helper()
	f, err := c.conn.Recv()
	if err != nil {
		c.t.Fatal(err)
	}
	return f
}

// readLock runs the read step for one key — a read-lock batch of one —
// and returns the key's result.
func (c *rawClient) readLock(txn uint64, key string, upper timestamp.Timestamp) wire.ReadLockResult {
	c.t.Helper()
	f := c.call(wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: txn, Upper: upper, Keys: []string{key}})
	var resp wire.ReadLockBatchResp
	if err := resp.DecodeInto(f.Body()); err != nil || resp.Status != wire.StatusOK || len(resp.Results) != 1 {
		c.t.Fatalf("read-lock batch of one: %+v %v", resp, err)
	}
	return resp.Results[0]
}

// freezeWrite freezes txn's write lock on key at ts — a freeze batch of
// one — and returns the key's ack.
func (c *rawClient) freezeWrite(txn uint64, key string, at timestamp.Timestamp) wire.Ack {
	c.t.Helper()
	f := c.call(wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: txn, TS: at, WriteKeys: []string{key}})
	resp, err := wire.DecodeFreezeBatchResp(f.Body())
	if err != nil || resp.Status != wire.StatusOK || len(resp.WriteAcks) != 1 {
		c.t.Fatalf("freeze batch of one: %+v %v", resp, err)
	}
	return resp.WriteAcks[0]
}

// release drops txn's unfrozen locks on key: a release batch of one.
func (c *rawClient) release(txn uint64, key string) {
	c.t.Helper()
	c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: txn, Keys: []string{key}})
}

func startServer(t *testing.T, wlTimeout time.Duration) (*server.Server, *transport.Mem) {
	t.Helper()
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{
		Addr:             "srv",
		Network:          n,
		LockWaitTimeout:  200 * time.Millisecond,
		WriteLockTimeout: wlTimeout,
		ScanInterval:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, n
}

func ts(v int64) timestamp.Timestamp { return timestamp.New(v, 0) }

func TestServerReadFreshKey(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	resp := c.readLock(1, "x", ts(100))
	if resp.Status != wire.StatusOK || resp.Value != nil || resp.VersionTS != timestamp.Zero {
		t.Fatalf("%+v", resp)
	}
	if resp.Got.IsEmpty() {
		t.Fatal("read should have locked an interval")
	}
}

func TestServerWriteLockFreezeReadBack(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	f := c.call(wire.TWriteLockReq, wire.WriteLockReq{
		Txn: 1, Key: "x", DecisionSrv: "srv", Set: set, Value: []byte("v1"),
	})
	wresp, err := wire.DecodeWriteLockResp(f.Body())
	if err != nil || wresp.Status != wire.StatusOK || !wresp.Got.Equal(set) {
		t.Fatalf("%+v %v", wresp, err)
	}

	// Commit at 15: decide, then freeze.
	f = c.call(wire.TDecideReq, wire.DecideReq{Txn: 1, Proposal: wire.DecideCommit, TS: ts(15)})
	dresp, err := wire.DecodeDecideResp(f.Body())
	if err != nil || dresp.Kind != wire.DecideCommit {
		t.Fatalf("%+v %v", dresp, err)
	}
	if ack := c.freezeWrite(1, "x", ts(15)); ack.Status != wire.StatusOK {
		t.Fatalf("%+v", ack)
	}
	// Release leftover locks.
	c.release(1, "x")

	// A later reader sees the committed value.
	rresp := c.readLock(2, "x", ts(100))
	if rresp.Status != wire.StatusOK {
		t.Fatalf("%+v", rresp)
	}
	if string(rresp.Value) != "v1" || rresp.VersionTS != ts(15) {
		t.Fatalf("value %q at %v", rresp.Value, rresp.VersionTS)
	}
}

func TestServerFreezeWithoutPendingFails(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	if ack := c.freezeWrite(9, "x", ts(5)); ack.Status == wire.StatusOK {
		t.Fatal("freeze without a pending write must fail")
	}
}

func TestServerWriteConflictStatus(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Point(ts(5)))
	c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: 1, Key: "x", Set: set, Value: []byte("a")})
	// Exact conflicting request from another txn, no wait, no partial
	// fallback server-side: server always acquires partially, so Got is
	// empty and Denied covers the point.
	f := c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: 2, Key: "x", Set: set, Value: []byte("b")})
	resp, err := wire.DecodeWriteLockResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Got.IsEmpty() || !resp.Denied.Contains(ts(5)) {
		t.Fatalf("%+v", resp)
	}
}

func TestServerSuspectsDeadCoordinator(t *testing.T) {
	_, n := startServer(t, 150*time.Millisecond)
	c := dialRaw(t, n, "srv")
	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	c.call(wire.TWriteLockReq, wire.WriteLockReq{
		Txn: 7, Key: "x", DecisionSrv: "srv", Set: set, Value: []byte("doomed"),
	})
	// Coordinator goes silent. The suspicion scanner must abort txn 7
	// and release its locks.
	deadline := time.Now().Add(3 * time.Second)
	other := dialRaw(t, n, "srv")
	for {
		f := other.call(wire.TWriteLockReq, wire.WriteLockReq{
			Txn: 8, Key: "x", DecisionSrv: "srv", Set: set, Value: []byte("winner"),
		})
		resp, err := wire.DecodeWriteLockResp(f.Body())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == wire.StatusOK && resp.Got.Equal(set) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("orphaned write locks never released")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// The commitment object must have decided abort for txn 7; a late
	// commit proposal from the "dead" coordinator is refused.
	f := c.call(wire.TDecideReq, wire.DecideReq{Txn: 7, Proposal: wire.DecideCommit, TS: ts(15)})
	dresp, err := wire.DecodeDecideResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if dresp.Kind != wire.DecideAbort {
		t.Fatalf("agreement violated: late coordinator saw %v", dresp.Kind)
	}
}

func TestServerPurgeAndStats(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	// Install three versions.
	for i, v := range []int64{10, 20, 30} {
		txn := uint64(i + 1)
		set := timestamp.NewSet(timestamp.Point(ts(v)))
		c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: txn, Key: "x", DecisionSrv: "srv", Set: set, Value: []byte{byte(v)}})
		c.call(wire.TDecideReq, wire.DecideReq{Txn: txn, Proposal: wire.DecideCommit, TS: ts(v)})
		c.freezeWrite(txn, "x", ts(v))
	}
	f := c.call(wire.TStatsReq, nil)
	st, err := wire.DecodeStatsResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 || st.Versions != 4 { // 3 writes + ⊥
		t.Fatalf("stats = %+v", st)
	}
	f = c.call(wire.TPurgeReq, wire.PurgeReq{Bound: ts(25)})
	presp, err := wire.DecodePurgeResp(f.Body())
	if err != nil {
		t.Fatal(err)
	}
	if presp.Versions != 2 { // ⊥ and v10 dropped; v20 kept as boundary
		t.Fatalf("purged %d versions", presp.Versions)
	}
}

func TestServerMalformedFrame(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	f := c.call(wire.TReadLockBatchReq, wire.Raw{1, 2, 3})
	var resp wire.ReadLockBatchResp
	if err := resp.DecodeInto(f.Body()); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusError {
		t.Fatalf("malformed request must yield StatusError, got %+v", resp)
	}
}

// TestServerIgnoresRetiredMessageTypes sends a frame of each retired
// single-key type number: the server must not read it as some other
// message. It answers nothing — the next reply on the connection belongs
// to the request behind it — and keeps serving.
func TestServerIgnoresRetiredMessageTypes(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")
	var old wire.Encoder // a single-key read-lock request, as it used to be encoded
	old.U64(1)
	old.Str("x")
	old.TS(ts(100))
	old.Bool(false)
	for _, retired := range []wire.MsgType{1, 2, 5, 6, 7, 8, 9, 10} {
		c.send(retired, wire.Raw(old.Bytes()))
		st, err := wire.DecodeStatsResp(c.call(wire.TStatsReq, nil).Body())
		if err != nil || st.Keys != 0 || st.LockEntries != 0 {
			t.Fatalf("a frame of retired type %d touched server state: %+v %v", retired, st, err)
		}
	}
}

func TestServerConcurrentRequestsOneConn(t *testing.T) {
	_, n := startServer(t, time.Minute)
	conn, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// Issue 20 interleaved reads without waiting for responses, then
	// collect: the per-request goroutines must answer all of them.
	for i := uint64(1); i <= 20; i++ {
		req := wire.ReadLockBatchReq{Txn: i, Upper: ts(int64(100 + i)), Keys: []string{"k"}}
		fb := wire.GetFrameBuf()
		if err := fb.SetFrame(i, wire.TReadLockBatchReq, req); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(fb); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		seen[f.ID()] = true
		f.Release()
	}
	if len(seen) != 20 {
		t.Fatalf("got %d distinct responses", len(seen))
	}
}

// TestServerCommittedReleaseInstallsLostFreeze covers the lost-freeze
// hole: freezes and releases are both fire-and-forget casts, so a
// dropped freeze followed by a delivered release used to discard the
// still-unfrozen write lock — and with it the pending value of a
// durably committed write. A release carrying the commit decision must
// install the pending write at the commit timestamp instead.
func TestServerCommittedReleaseInstallsLostFreeze(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	set := timestamp.NewSet(timestamp.Span(ts(10), ts(20)))
	f := c.call(wire.TWriteLockReq, wire.WriteLockReq{
		Txn: 1, Key: "x", DecisionSrv: "srv", Set: set, Value: []byte("v1"),
	})
	wresp, err := wire.DecodeWriteLockResp(f.Body())
	if err != nil || wresp.Status != wire.StatusOK {
		t.Fatalf("%+v %v", wresp, err)
	}
	f = c.call(wire.TDecideReq, wire.DecideReq{Txn: 1, Proposal: wire.DecideCommit, TS: ts(15)})
	if dresp, err := wire.DecodeDecideResp(f.Body()); err != nil || dresp.Kind != wire.DecideCommit {
		t.Fatalf("%+v %v", dresp, err)
	}
	// The freeze cast is "lost": the coordinator's release batch arrives
	// first, carrying the commit decision.
	f = c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{
		Txn: 1, Committed: true, TS: ts(15), Keys: []string{"x"},
	})
	if ack, err := wire.DecodeAck(f.Body()); err != nil || ack.Status != wire.StatusOK {
		t.Fatalf("%+v %v", ack, err)
	}
	// The committed value must be readable, not dropped.
	rresp := c.readLock(2, "x", ts(100))
	if rresp.Status != wire.StatusOK {
		t.Fatalf("%+v", rresp)
	}
	if string(rresp.Value) != "v1" || rresp.VersionTS != ts(15) {
		t.Fatalf("committed write lost: value %q at %v, want \"v1\" at %v", rresp.Value, rresp.VersionTS, ts(15))
	}
	// An uncommitted release (the abort path) still drops pending writes.
	set2 := timestamp.NewSet(timestamp.Span(ts(30), ts(40)))
	c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: 3, Key: "y", DecisionSrv: "srv", Set: set2, Value: []byte("v2")})
	c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 3, Keys: []string{"y"}})
	rresp = c.readLock(4, "y", ts(100))
	if rresp.Status != wire.StatusOK {
		t.Fatalf("%+v", rresp)
	}
	if len(rresp.Value) != 0 || rresp.VersionTS != timestamp.Zero {
		t.Fatalf("aborted write leaked: value %q at %v", rresp.Value, rresp.VersionTS)
	}
}
