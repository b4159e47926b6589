package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// The servers' suspicion settings in every test cluster.
const (
	writeLockTimeout = 500 * time.Millisecond
	scanInterval     = 50 * time.Millisecond
)

func startCluster(t *testing.T, servers int, rec *history.Recorder) *cluster.Cluster {
	t.Helper()
	return startClusterOn(t, servers, rec, nil)
}

// startClusterOn is startCluster over network, or the local bed's when
// it is nil.
func startClusterOn(t *testing.T, servers int, rec *history.Recorder, network transport.Network) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{
		Servers:  servers,
		Bed:      cluster.BedLocal,
		Network:  network,
		Recorder: rec,
		ServerConfig: server.Config{
			LockWaitTimeout:  300 * time.Millisecond,
			WriteLockTimeout: writeLockTimeout,
			ScanInterval:     scanInterval,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestDistributedRoundTrip(t *testing.T) {
	// Subtests are named by command-line spellings, which policy.Parse
	// accepts (TestKindTable), so its error needs no check.
	for _, name := range []string{"mvtil-early", "mvtil-late", "mvto+", "2pl"} {
		mode, _ := policy.Parse(name)
		t.Run(name, func(t *testing.T) {
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

// TestCrashAfterDecideCommits validates the other failover direction
// (Alg. 13's recovery): the coordinator decides commit at the decision
// server, which installs and freezes its share with the decision, and
// stops — its committed release to the other server never arrives. That
// server's suspicion scanner learns the commit from the decision server
// and ends the transaction through the decided door: within one
// WriteLockTimeout plus a scan, both keys read their committed values and
// take new writes.
func TestCrashAfterDecideCommits(t *testing.T) {
	// The first coordinator a cluster makes is client-1.
	network := &dropReleases{Network: transport.NewMem(cluster.LatencyFor(cluster.BedLocal)), from: "client-1"}
	c := startClusterOn(t, 2, nil, network)
	ctx := context.Background()
	var keys [2]string // one key on each server
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if p := strhash.Partition(k, len(keys)); keys[p] == "" {
			keys[p] = k
		}
	}

	crasher, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	tx, _ := crasher.Begin(ctx)
	for _, k := range keys {
		if err := tx.Write(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	decided := time.Now()
	_ = crasher.Close()
	if n := network.dropped.Load(); n != 1 {
		t.Fatalf("%d release casts dropped, want the one to the server that did not decide", n)
	}

	// Each attempt reads both keys and rewrites them. Until the scanner
	// ends the transaction, the key whose release was lost holds no
	// version and an unfrozen write lock above the commit point.
	other, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	attempt := func() error {
		tx, err := other.Begin(ctx)
		if err != nil {
			return err
		}
		for _, k := range keys {
			v, err := tx.Read(ctx, k)
			if err == nil && string(v) != "v-"+k {
				err = fmt.Errorf("%s = %q, want the committed %q", k, v, "v-"+k)
			}
			if err == nil {
				err = tx.Write(ctx, k, []byte("again"))
			}
			if err != nil {
				_ = tx.Abort(ctx)
				return err
			}
		}
		return tx.Commit(ctx)
	}
	// A scan, with room for its round trip to the decision server.
	deadline := decided.Add(writeLockTimeout + 4*scanInterval)
	for {
		err := attempt()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v after the decision, the keys are still not both committed and writable: %v", time.Since(decided), err)
		}
		time.Sleep(scanInterval / 5)
	}
}

// dropReleases is a network on which the release casts that endpoint
// from sends vanish, as a crashed coordinator's never leave.
type dropReleases struct {
	transport.Network
	from    string
	dropped atomic.Int64
}

// Endpoint implements the cluster's per-process view of the network.
func (n *dropReleases) Endpoint(name string) transport.Network {
	if name != n.from {
		return n.Network
	}
	return releaseDropper{n}
}

// releaseDropper is the view of the dropping endpoint.
type releaseDropper struct{ n *dropReleases }

func (d releaseDropper) Dial(addr string) (transport.Conn, error) {
	conn, err := d.n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &dropConn{Conn: conn, n: d.n}, nil
}

func (d releaseDropper) Listen(addr string) (transport.Listener, error) {
	return d.n.Network.Listen(addr)
}

type dropConn struct {
	transport.Conn
	n *dropReleases
}

// drop releases fb if it is a release cast, and reports whether it was.
func (c *dropConn) drop(fb *wire.FrameBuf) bool {
	if fb.Type() != wire.TReleaseBatchReq {
		return false
	}
	fb.Release()
	c.n.dropped.Add(1)
	return true
}

func (c *dropConn) Send(fb *wire.FrameBuf) error {
	if c.drop(fb) {
		return nil
	}
	return c.Conn.Send(fb)
}

func (c *dropConn) SendBatch(fbs []*wire.FrameBuf) error {
	kept := fbs[:0]
	for _, fb := range fbs {
		if !c.drop(fb) {
			kept = append(kept, fb)
		}
	}
	clear(fbs[len(kept):])
	return c.Conn.SendBatch(kept)
}

// TestDistributedStressSerializable runs concurrent mixed workloads under
// every mode across several clients and validates the committed history
// with the MVSG checker (Theorem 8). Each client is shared by two
// goroutines, so its transactions run side by side and its pooled
// per-transaction state passes between goroutines and Ps.
func TestDistributedStressSerializable(t *testing.T) {
	// Subtests are named by command-line spellings, which policy.Parse
	// accepts (TestKindTable), so its error needs no check.
	for _, name := range []string{"mvtil-early", "mvtil-late", "mvto+", "2pl"} {
		mode, _ := policy.Parse(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var rec history.Recorder
			c := startCluster(t, 3, &rec)
			ctx := context.Background()

			const clients, perClient = 3, 2
			const txnsPer = 25
			var wg sync.WaitGroup
			var commits int64
			var mu sync.Mutex
			var cl *client.Client
			for i := 0; i < clients*perClient; i++ {
				if i%perClient == 0 { // the next perClient goroutines share it
					var err error
					if cl, err = c.NewClient(mode, 5000, nil); err != nil {
						t.Fatal(err)
					}
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
