package client_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// countingNetwork wraps a Network and counts what coordinators exchange
// with the servers on the connections they dial: frames sent, per server
// address, by type, and how many of them casts (bit 63 of the
// correlation id, see package rpc), and frames received.
type countingNetwork struct {
	transport.Network
	mu   sync.Mutex
	sent map[string]*serverCount

	c2s, casts, s2c atomic.Int64
	byType          [256]atomic.Int64
}

func newCountingNetwork(inner transport.Network) *countingNetwork {
	return &countingNetwork{Network: inner, sent: make(map[string]*serverCount)}
}

// serverCount is what was sent to one server: frames, and frames by type.
type serverCount struct {
	frames atomic.Int64
	byType [256]atomic.Int64
}

func (n *countingNetwork) counter(addr string) *serverCount {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.sent[addr]
	if !ok {
		c = &serverCount{}
		n.sent[addr] = c
	}
	return c
}

func (n *countingNetwork) Dial(addr string) (transport.Conn, error) {
	conn, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, n: n, sent: n.counter(addr)}, nil
}

// snapshot returns the frames sent so far, per server address.
func (n *countingNetwork) snapshot() map[string]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int64, len(n.sent))
	for addr, c := range n.sent {
		out[addr] = c.frames.Load()
	}
	return out
}

// sentOf returns the frames of type t sent to addr so far.
func (n *countingNetwork) sentOf(addr string, t wire.MsgType) int64 {
	return n.counter(addr).byType[t].Load()
}

type countingConn struct {
	transport.Conn
	n    *countingNetwork
	sent *serverCount
}

func (c *countingConn) count(f *wire.FrameBuf) {
	c.sent.frames.Add(1)
	c.sent.byType[f.Type()].Add(1)
	c.n.c2s.Add(1)
	c.n.casts.Add(int64(f.ID() >> 63))
	c.n.byType[f.Type()].Add(1)
}

func (c *countingConn) Send(f *wire.FrameBuf) error {
	c.count(f)
	return c.Conn.Send(f)
}

// SendBatch keeps the frame counts exact under opportunistic
// coalescing: a batch of n frames is n sends, not one.
func (c *countingConn) SendBatch(fbs []*wire.FrameBuf) error {
	for _, f := range fbs {
		c.count(f)
	}
	return c.Conn.SendBatch(fbs)
}

func (c *countingConn) Recv() (*wire.FrameBuf, error) {
	f, err := c.Conn.Recv()
	if err == nil {
		c.n.s2c.Add(1)
	}
	return f, err
}

func startServers(t *testing.T, n transport.Network, count int) []string {
	t.Helper()
	return startServersOn(t, n, count, nil)
}

// startServersOn is startServers with every server's timed waits on
// timers (nil: the wall clock).
func startServersOn(t *testing.T, n transport.Network, count int, timers clock.Timers) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("s%d", i)
		srv, err := server.New(server.Config{Addr: addrs[i], Network: n, Timers: timers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	return addrs
}

// TestGetMultiRoundTripsPerServer pins the acceptance criterion of the
// batched read path: a 16-key static read set over 4 servers costs one
// request frame per contacted server — O(servers) round trips — where a
// sequential Read loop costs one per key.
func TestGetMultiRoundTripsPerServer(t *testing.T) {
	const servers, nkeys = 4, 16
	n := newCountingNetwork(transport.NewMem(transport.LatencyModel{}))
	addrs := startServers(t, n, servers)
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()

	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	seed, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := seed.Write(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// The "before": one Read per key costs one frame per key.
	rd, _ := cl.Begin(ctx)
	before := n.snapshot()
	for _, k := range keys {
		if _, err := rd.Read(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	mid := n.snapshot()
	var seqFrames int64
	for addr, c := range mid {
		seqFrames += c - before[addr]
	}
	if seqFrames != nkeys {
		t.Fatalf("sequential reads sent %d frames, want %d (one per key)", seqFrames, nkeys)
	}
	_ = rd.Abort(ctx)

	// The "after": GetMulti costs one frame per contacted server.
	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base := n.snapshot()
	got, err := tx.(kv.MultiGetter).GetMulti(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	after := n.snapshot()
	var batchFrames int64
	contacted := 0
	for addr, c := range after {
		if d := c - base[addr]; d > 0 {
			batchFrames += d
			contacted++
		}
	}
	if batchFrames > servers {
		t.Fatalf("GetMulti sent %d frames for %d keys over %d servers; want at most one per server", batchFrames, nkeys, servers)
	}
	if int(batchFrames) != contacted {
		t.Fatalf("GetMulti sent %d frames to %d servers; want exactly one per contacted server", batchFrames, contacted)
	}
	// The map and its values are lent until the transaction ends.
	if len(got) != nkeys {
		t.Fatalf("got %d values, want %d", len(got), nkeys)
	}
	for _, k := range keys {
		if string(got[k]) != "v-"+k {
			t.Fatalf("got[%q] = %q", k, got[k])
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGetMultiAllModes runs the batched read path under every protocol:
// buffered writes overlay the snapshot, duplicates collapse, missing
// keys come back as ⊥ (nil), and the transaction still commits.
func TestGetMultiAllModes(t *testing.T) {
	// Subtests are named by command-line spellings, which policy.Parse
	// accepts (TestKindTable), so its error needs no check.
	for _, name := range []string{"mvtil-early", "mvtil-late", "mvto+", "2pl"} {
		mode, _ := policy.Parse(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			n := transport.NewMem(transport.LatencyModel{})
			addrs := startServers(t, n, 3)
			cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cl.Close() })
			ctx := context.Background()

			seed, _ := cl.Begin(ctx)
			for _, k := range []string{"a", "b", "c"} {
				if err := seed.Write(ctx, k, []byte("old-"+k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := seed.Commit(ctx); err != nil {
				t.Fatal(err)
			}

			tx, err := cl.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(ctx, "b", []byte("buffered")); err != nil {
				t.Fatal(err)
			}
			got, err := kv.GetMulti(ctx, tx, []string{"a", "b", "a", "c", "missing"})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{"a": "old-a", "b": "buffered", "c": "old-c"}
			if len(got) != 4 {
				t.Fatalf("got %d entries, want 4 (duplicates collapse): %v", len(got), got)
			}
			for k, w := range want {
				if string(got[k]) != w {
					t.Fatalf("%s mode: got[%q] = %q want %q", mode, k, got[k], w)
				}
			}
			if v, ok := got["missing"]; !ok || v != nil {
				t.Fatalf("missing key must be present and ⊥: %v %v", v, ok)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGetMultiAfterFinish pins the done-transaction behavior.
func TestGetMultiAfterFinish(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	addrs := startServers(t, n, 1)
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	tx, _ := cl.Begin(ctx)
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.(kv.MultiGetter).GetMulti(ctx, []string{"a"}); err != kv.ErrTxnDone {
		t.Fatalf("want ErrTxnDone, got %v", err)
	}
}

// TestGetMultiPartialFailureReleasesLocks is the regression test for
// the partial-failure path: when a GetMulti spans a healthy and an
// unreachable server, the transaction aborts — and the read locks it
// did acquire on the healthy server must be released, not leaked until
// the purge bound passes them.
func TestGetMultiPartialFailureReleasesLocks(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	healthy := startServers(t, n, 1)[0]
	addrs := []string{healthy, "dead"} // second server never listens
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()

	// Find one key per server; seed the healthy one.
	var healthyKey, deadKey string
	for i := 0; healthyKey == "" || deadKey == ""; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if addrs[strhash.FNV1a(k)%2] == healthy {
			if healthyKey == "" {
				healthyKey = k
			}
		} else if deadKey == "" {
			deadKey = k
		}
	}
	seed, _ := cl.Begin(ctx)
	if err := seed.Write(ctx, healthyKey, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := cl.ServerStats(ctx, healthy)
	if err != nil {
		t.Fatal(err)
	}

	tx, _ := cl.Begin(ctx)
	if _, err := tx.(kv.MultiGetter).GetMulti(ctx, []string{healthyKey, deadKey}); err == nil {
		t.Fatal("GetMulti spanning an unreachable server must fail")
	}
	// The release is a fire-and-forget cast; poll until it lands.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after, err := cl.ServerStats(ctx, healthy)
		if err != nil {
			t.Fatal(err)
		}
		if after.LockEntries == before.LockEntries {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read locks leaked on the healthy server: %d entries before GetMulti, %d after abort",
				before.LockEntries, after.LockEntries)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGetMultiSteadyStateAllocs: once warm, a GetMulti of fourteen
// present 1 KiB values allocates nothing, on the coordinator over three
// Mem servers and on the in-process core.DB alike. Its map lives in the
// transaction's pooled scratch, and on the coordinator so does the
// region the values are copied into; both are lent to the transaction
// and reused by the next. GetMulti's share is a read-only transaction of
// one GetMulti less an empty one, both counted on one P: a sync.Pool
// keeps its entries per P.
func TestGetMultiSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Run("coordinator", func(t *testing.T) {
		n := transport.NewMem(transport.LatencyModel{})
		addrs := startServers(t, n, 3)
		cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		checkGetMultiSteadyState(t, cl)
	})
	t.Run("core.DB", func(t *testing.T) {
		var src clock.Logical
		checkGetMultiSteadyState(t, core.New(policy.NewTIL(clock.NewProcess(&src, 1), 100, policy.CommitEarly, true), core.Options{}).KV())
	})
}

func checkGetMultiSteadyState(t *testing.T, db kv.DB) {
	ctx := context.Background()
	keys := make([]string, 14)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	val := make([]byte, 1024)
	run := func(body func(kv.Txn) error) {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := body(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run(func(tx kv.Txn) error {
		for _, k := range keys {
			if err := tx.Write(ctx, k, val); err != nil {
				return err
			}
		}
		return nil
	})
	empty := func() { run(func(kv.Txn) error { return nil }) }
	getMulti := func() {
		run(func(tx kv.Txn) error {
			m, err := kv.GetMulti(ctx, tx, keys)
			if err == nil && (len(m) != len(keys) || len(m[keys[0]]) != len(val)) {
				t.Fatalf("GetMulti returned %d values, the first of %d bytes; want %d of %d", len(m), len(m[keys[0]]), len(keys), len(val))
			}
			return err
		})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 10 { // warm-up: the pooled scratch grows to fourteen keys
		getMulti()
	}
	base := testing.AllocsPerRun(100, empty)
	if avg := testing.AllocsPerRun(100, getMulti) - base; avg != 0 {
		t.Errorf("GetMulti of %d present %d-byte values: %v allocs, want 0", len(keys), len(val), avg)
	} else {
		t.Logf("GetMulti of %d present %d-byte values: 0 allocs (an empty transaction: %v)", len(keys), len(val), base)
	}
}
