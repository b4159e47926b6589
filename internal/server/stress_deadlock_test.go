package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// keyOnServer generates a fresh key that hashes to server index want of
// nservers (the client partitions keys by FNV1a hash).
func keyOnServer(prefix string, want, nservers, salt int) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d-%d", prefix, salt, i)
		if int(strhash.FNV1a(k)%uint32(nservers)) == want {
			return k
		}
	}
}

// startDeadlockBed brings up two servers and two pessimistic (2PL)
// coordinators; pessimistic writes block on conflicts, which is what
// makes cross-server AB-BA cycles possible.
func startDeadlockBed(t testing.TB, lockWait time.Duration, poll time.Duration, rec *history.Recorder) (addrs []string, cls []*client.Client) {
	t.Helper()
	n := transport.NewMem(transport.LatencyModel{})
	addrs = []string{"srv-0", "srv-1"}
	for _, a := range addrs {
		srv, err := server.New(server.Config{Addr: a, Network: n, LockWaitTimeout: lockWait})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	for id := int32(1); id <= 2; id++ {
		cl, err := client.New(client.Config{
			ID: id, Servers: addrs, Network: n, Mode: client.ModePessimistic,
			DeadlockPoll: poll, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		cls = append(cls, cl)
	}
	return addrs, cls
}

// TestCrossServerDeadlockVictimAbort builds the canonical cross-server
// AB-BA cycle: transaction 1 write-locks key A on server 0 and then key
// B on server 1; transaction 2 locks B first and then A. Neither
// server's local wait-for graph sees a cycle, so before global
// detection this stalled both transactions for the full LockWaitTimeout
// (2s here). With the coordinator detectors polling, the cycle must
// resolve via a victim abort well under that: the victim is
// deterministically the lower transaction id (transaction 1), its error
// carries kv.ErrDeadlock, and the survivor commits.
func TestCrossServerDeadlockVictimAbort(t *testing.T) {
	const lockWait = 2 * time.Second
	_, cls := startDeadlockBed(t, lockWait, 5*time.Millisecond, nil)
	ctx := context.Background()

	const rounds = 7
	elapsed := make([]time.Duration, 0, rounds)
	for round := 0; round < rounds; round++ {
		kA := keyOnServer("dlA", 0, 2, round)
		kB := keyOnServer("dlB", 1, 2, round)

		tx1, err := cls[0].Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tx2, err := cls[1].Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx1.Write(ctx, kA, []byte("t1")); err != nil {
			t.Fatalf("round %d: tx1 first write: %v", round, err)
		}
		if err := tx2.Write(ctx, kB, []byte("t2")); err != nil {
			t.Fatalf("round %d: tx2 first write: %v", round, err)
		}

		start := time.Now()
		var err1, err2 error
		var race sync.WaitGroup
		race.Add(2)
		go func() { defer race.Done(); err1 = tx1.Write(ctx, kB, []byte("t1")) }()
		go func() { defer race.Done(); err2 = tx2.Write(ctx, kA, []byte("t2")) }()
		race.Wait()
		took := time.Since(start)

		// Exactly one write failed, and tx1 (the lower id) is the
		// deterministic victim.
		var vErr error
		switch {
		case err1 != nil && err2 == nil:
			vErr = err1
		case err1 == nil && err2 != nil:
			vErr = err2
		default:
			t.Fatalf("round %d: want exactly one victim, got err1=%v err2=%v", round, err1, err2)
		}
		if !errors.Is(vErr, kv.ErrAborted) || !errors.Is(vErr, kv.ErrDeadlock) {
			t.Fatalf("round %d: victim error must wrap ErrAborted and ErrDeadlock: %v", round, vErr)
		}
		if err1 == nil {
			t.Fatalf("round %d: victim must be the lowest txn id (tx1), but tx2 died: %v", round, err2)
		}
		if err := tx2.Commit(ctx); err != nil {
			t.Fatalf("round %d: survivor must commit: %v", round, err)
		}
		if took >= lockWait {
			t.Fatalf("round %d: cycle took %v, no better than the %v timeout", round, took, lockWait)
		}
		elapsed = append(elapsed, took)
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })
	median := elapsed[len(elapsed)/2]
	t.Logf("cycle resolution: median %v, min %v, max %v (timeout %v)",
		median, elapsed[0], elapsed[len(elapsed)-1], lockWait)
	if median > 500*time.Millisecond {
		t.Fatalf("median resolution %v; want well under the %v timeout", median, lockWait)
	}
}

// TestCrossServerDeadlockDisabledFallsBackToTimeout pins the "before"
// behaviour the detector replaces: with polling disabled, the same
// AB-BA cycle is only broken by the lock-wait timeout, so resolution
// takes at least that long. (This is the baseline recorded in
// BENCH_deadlock.json.)
func TestCrossServerDeadlockDisabledFallsBackToTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a full lock-wait timeout")
	}
	const lockWait = 300 * time.Millisecond
	_, cls := startDeadlockBed(t, lockWait, -1, nil)
	ctx := context.Background()
	kA := keyOnServer("toA", 0, 2, 0)
	kB := keyOnServer("toB", 1, 2, 0)

	tx1, _ := cls[0].Begin(ctx)
	tx2, _ := cls[1].Begin(ctx)
	if err := tx1.Write(ctx, kA, []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(ctx, kB, []byte("t2")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var err1, err2 error
	var race sync.WaitGroup
	race.Add(2)
	go func() { defer race.Done(); err1 = tx1.Write(ctx, kB, []byte("t1")) }()
	go func() { defer race.Done(); err2 = tx2.Write(ctx, kA, []byte("t2")) }()
	race.Wait()
	took := time.Since(start)
	if err1 == nil && err2 == nil {
		t.Fatal("undetected cycle cannot resolve without an abort")
	}
	if took < lockWait {
		t.Fatalf("without detection the cycle resolved in %v < timeout %v — who aborted?", took, lockWait)
	}
	if errors.Is(err1, kv.ErrDeadlock) || errors.Is(err2, kv.ErrDeadlock) {
		t.Fatalf("timeout aborts must not claim to be deadlock victims: %v / %v", err1, err2)
	}
}

// TestCrossServerDeadlockStress drives four pessimistic coordinators
// over a tiny hot key set spanning both servers, writing keys in random
// order — the classic deadlock generator. Every transaction must finish
// (commit, or abort as a victim/timeout) and the recorded history must
// stay serializable. Run with -race this also exercises the detector
// goroutines against the lock tables' external-abort path.
func TestCrossServerDeadlockStress(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	addrs := []string{"srv-0", "srv-1"}
	for _, a := range addrs {
		srv, err := server.New(server.Config{Addr: a, Network: n, LockWaitTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	var rec history.Recorder
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
	}

	const (
		coordinators = 4
		txnsPerCoord = 30
	)
	var wg sync.WaitGroup
	var deadlockAborts, commits, otherAborts int
	var statMu sync.Mutex
	for c := 0; c < coordinators; c++ {
		cl, err := client.New(client.Config{
			ID: int32(10 + c), Servers: addrs, Network: n,
			Mode: client.ModePessimistic, DeadlockPoll: 5 * time.Millisecond, Recorder: &rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		wg.Add(1)
		go func(cl *client.Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < txnsPerCoord; i++ {
				tx, err := cl.Begin(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				perm := rng.Perm(len(keys))[:3]
				var failed error
				for _, ki := range perm {
					if err := tx.Write(ctx, keys[ki], []byte(fmt.Sprintf("v%d-%d", seed, i))); err != nil {
						failed = err
						break
					}
				}
				if failed == nil {
					failed = tx.Commit(ctx)
				}
				statMu.Lock()
				switch {
				case failed == nil:
					commits++
				case errors.Is(failed, kv.ErrDeadlock):
					deadlockAborts++
				case errors.Is(failed, kv.ErrAborted):
					otherAborts++
				default:
					statMu.Unlock()
					t.Errorf("unexpected error: %v", failed)
					return
				}
				statMu.Unlock()
			}
		}(cl, int64(c+1))
	}
	wg.Wait()
	t.Logf("commits=%d deadlockAborts=%d otherAborts=%d", commits, deadlockAborts, otherAborts)
	if commits == 0 {
		t.Fatal("nothing committed under contention")
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
}

// BenchmarkCycleResolution measures end-to-end resolution of one
// cross-server AB-BA cycle: from closing the cycle to the victim
// aborted and the survivor committed. The detector sub-benchmark is the
// global-detection path; timeout is the pre-detector baseline, where
// only the 1s lock-wait timeout breaks the cycle (both recorded in
// BENCH_deadlock.json). Not part of the CI bench smoke — the timeout
// arm costs a full second per iteration.
func BenchmarkCycleResolution(b *testing.B) {
	for _, cfg := range []struct {
		name string
		poll time.Duration
	}{
		{"detector", 5 * time.Millisecond},
		{"timeout", -1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			_, cls := startDeadlockBed(b, time.Second, cfg.poll, nil)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kA := keyOnServer("b"+cfg.name+"A", 0, 2, i)
				kB := keyOnServer("b"+cfg.name+"B", 1, 2, i)
				tx1, _ := cls[0].Begin(ctx)
				tx2, _ := cls[1].Begin(ctx)
				if err := tx1.Write(ctx, kA, []byte("t1")); err != nil {
					b.Fatal(err)
				}
				if err := tx2.Write(ctx, kB, []byte("t2")); err != nil {
					b.Fatal(err)
				}
				var err1, err2 error
				var race sync.WaitGroup
				race.Add(2)
				go func() { defer race.Done(); err1 = tx1.Write(ctx, kB, []byte("t1")) }()
				go func() { defer race.Done(); err2 = tx2.Write(ctx, kA, []byte("t2")) }()
				race.Wait()
				if err1 == nil && err2 == nil {
					b.Fatal("cycle resolved with no abort")
				}
				if err1 == nil {
					err1 = tx1.Commit(ctx)
				} else {
					err2 = tx2.Commit(ctx)
				}
				if err1 != nil && err2 != nil {
					b.Fatalf("no survivor: %v / %v", err1, err2)
				}
			}
		})
	}
}

// TestTxnStateGCSoak is the bounded-memory soak of the acceptance
// criteria: >= 100k transactions through two servers, after which the
// live transaction-record count must be zero. Opt-in via MVTL_SOAK=1 —
// it takes tens of seconds (numbers recorded in BENCH_deadlock.json).
func TestTxnStateGCSoak(t *testing.T) {
	if os.Getenv("MVTL_SOAK") == "" {
		t.Skip("set MVTL_SOAK=1 to run the 100k-transaction soak")
	}
	n := transport.NewMem(transport.LatencyModel{})
	addrs := []string{"srv-0", "srv-1"}
	for _, a := range addrs {
		srv, err := server.New(server.Config{Addr: a, Network: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	const (
		coordinators = 8
		txnsPerCoord = 12_500
	)
	var committed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < coordinators; c++ {
		cl, err := client.New(client.Config{ID: int32(1 + c), Servers: addrs, Network: n, Mode: client.ModeTO})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		wg.Add(1)
		go func(cl *client.Client, seed int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < txnsPerCoord; i++ {
				tx, err := cl.Begin(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				k := fmt.Sprintf("k-%d", (seed*31+i)%512)
				if _, err := tx.Read(ctx, k); err != nil {
					continue
				}
				if err := tx.Write(ctx, k, []byte("v")); err != nil {
					continue
				}
				if err := tx.Commit(ctx); err == nil {
					committed.Add(1)
				}
			}
		}(cl, c)
	}
	wg.Wait()
	cl, err := client.New(client.Config{ID: 99, Servers: addrs, Network: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	var live, purged int64
	for _, a := range addrs {
		st, err := cl.ServerStats(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		live += st.LiveTxns
		purged += st.PurgedTxns
	}
	t.Logf("%d/%d committed; live txn records=%d purged=%d", committed.Load(), coordinators*txnsPerCoord, live, purged)
	if live != 0 {
		t.Fatalf("%d transaction records survived the soak", live)
	}
	if purged < committed.Load() {
		t.Fatalf("purge counter %d < %d commits", purged, committed.Load())
	}
}

// TestTxnStateGC checks the transaction-state garbage collector: after
// a full write→decide→freeze→release round trip the server must retain
// no record, count the purge, and still tolerate late-arriving release
// and decide retries without resurrecting state.
func TestTxnStateGC(t *testing.T) {
	_, n := startServer(t, time.Minute)
	c := dialRaw(t, n, "srv")

	stats := func() wire.StatsResp {
		f := c.call(wire.TStatsReq, nil)
		st, err := wire.DecodeStatsResp(f.Body())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	const txns = 5
	for i := 1; i <= txns; i++ {
		txn := uint64(i)
		set := timestamp.NewSet(timestamp.Span(ts(int64(10*i)), ts(int64(10*i+5))))
		c.call(wire.TWriteLockReq, wire.WriteLockReq{Txn: txn, Key: "x", DecisionSrv: "srv", Set: set, Value: []byte{byte(i)}})
		c.call(wire.TDecideReq, wire.DecideReq{Txn: txn, Proposal: wire.DecideCommit, TS: ts(int64(10 * i))})
		c.freezeWrite(txn, "x", ts(int64(10*i)))
		c.release(txn, "x")
	}
	st := stats()
	if st.LiveTxns != 0 {
		t.Fatalf("finished transactions not purged: %d live", st.LiveTxns)
	}
	if st.PurgedTxns < txns {
		t.Fatalf("purge counter %d, want >= %d", st.PurgedTxns, txns)
	}

	// Late-arriving messages for a purged transaction must not break or
	// resurrect anything.
	f := c.call(wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: 1, Keys: []string{"x"}})
	if ack, err := wire.DecodeAck(f.Body()); err != nil || ack.Status != wire.StatusOK {
		t.Fatalf("late release after GC: %+v %v", ack, err)
	}
	f = c.call(wire.TDecideReq, wire.DecideReq{Txn: 1, Proposal: wire.DecideCommit, TS: ts(10)})
	dresp, err := wire.DecodeDecideResp(f.Body())
	if err != nil || dresp.Status != wire.StatusOK || dresp.Kind != wire.DecideCommit {
		t.Fatalf("late decide after GC: %+v %v", dresp, err)
	}
	// A late redundant freeze (the decide already installed the value)
	// must ack OK, not "no pending value".
	if ack := c.freezeWrite(1, "x", ts(10)); ack.Status != wire.StatusOK {
		t.Fatalf("late freeze after GC: %+v", ack)
	}
	if st := stats(); st.LiveTxns != 0 {
		t.Fatalf("late messages resurrected %d records", st.LiveTxns)
	}

	// Reads alone must not create transaction state either (a read
	// racing a decide used to resurrect finished records).
	c.readLock(99, "x", ts(1000))
	if st := stats(); st.LiveTxns != 0 {
		t.Fatalf("a read created transaction state: %d live", st.LiveTxns)
	}
}

// TestTxnStateGCAfterClientAbort covers the participant-server leak: a
// client-side abort sends its decide only to the decision server and a
// release batch to everyone else, so the release path must finish (and
// GC) the participant's record — otherwise every aborted multi-server
// transaction leaks one record on each non-decision server.
func TestTxnStateGCAfterClientAbort(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	addrs := []string{"srv-0", "srv-1"}
	for _, a := range addrs {
		srv, err := server.New(server.Config{Addr: a, Network: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModePessimistic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	const aborts = 5
	for i := 0; i < aborts; i++ {
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(ctx, keyOnServer("abA", 0, 2, i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(ctx, keyOnServer("abB", 1, 2, i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range addrs {
		st, err := cl.ServerStats(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		if st.LiveTxns != 0 {
			t.Fatalf("%s: %d records leaked by %d client aborts (purged %d)", a, st.LiveTxns, aborts, st.PurgedTxns)
		}
	}
}

// TestTxnStateGCBoundedUnderLoad runs a few hundred committing
// transactions through a coordinator and checks that the server's
// transaction-record count stays at zero afterwards while the purge
// counter grows — the bounded-memory property the GC exists for.
func TestTxnStateGCBoundedUnderLoad(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{Addr: "srv", Network: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cl, err := client.New(client.Config{ID: 1, Servers: []string{"srv"}, Network: n, Mode: client.ModeTO})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	ctx := context.Background()
	const txns = 300
	committed := 0
	for i := 0; i < txns; i++ {
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		k := fmt.Sprintf("k-%d", i%17)
		if _, err := tx.Read(ctx, k); err != nil {
			continue
		}
		if err := tx.Write(ctx, k, []byte("v")); err != nil {
			continue
		}
		if err := tx.Commit(ctx); err == nil {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	st, err := cl.ServerStats(ctx, "srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d committed; live=%d purged=%d", committed, st.LiveTxns, st.PurgedTxns)
	if st.LiveTxns != 0 {
		t.Fatalf("%d transaction records survived %d transactions", st.LiveTxns, txns)
	}
	if st.PurgedTxns < int64(committed) {
		t.Fatalf("purge counter %d < %d commits", st.PurgedTxns, committed)
	}
}
