package workload_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/metrics"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

func newDB(rec *history.Recorder) *core.DB {
	var src clock.Logical
	return core.New(policy.NewTIL(clock.NewProcess(&src, 1), 1000, policy.CommitEarly, true), core.Options{Recorder: rec})
}

// checkedKeys is the keyspace of the in-process runs whose whole history
// is checked: history.CheckCommits is linear in versions per key, so a
// 200ms run over 100 keys took tens of seconds to check. Over this many
// keys contention is rare; policy.TestStressSerializability checks the
// til-early policy for serializability under contention (12 keys).
const checkedKeys = 10000

func TestRunProducesThroughput(t *testing.T) {
	var rec history.Recorder
	db := newDB(&rec)
	res, err := workload.Run(context.Background(), db.KV(), workload.Config{
		Clients:       4,
		OpsPerTxn:     5,
		WriteFraction: 0.3,
		Keys:          checkedKeys,
		Measure:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatalf("no commits: %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput must be positive")
	}
	if rate := res.CommitRate(); rate <= 0 || rate > 1 {
		t.Fatalf("commit rate out of range: %v", rate)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("workload produced non-serializable history: %v", err)
	}
	if !strings.Contains(res.String(), "txs/s") {
		t.Fatalf("String = %q", res.String())
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	db := newDB(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := workload.Run(ctx, db.KV(), workload.Config{Measure: 10 * time.Second})
	if err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("cancellation not honored promptly")
	}
}

func TestRunWithSampler(t *testing.T) {
	db := newDB(nil)
	sampler := metrics.NewSampler(20*time.Millisecond, func() map[string]float64 {
		st := db.StateStats()
		return map[string]float64{"versions": float64(st.Versions)}
	})
	_, err := workload.RunWithSampler(context.Background(), db.KV(), workload.Config{
		Clients:       2,
		OpsPerTxn:     4,
		WriteFraction: 1,
		Keys:          10,
		Measure:       150 * time.Millisecond,
	}, sampler)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampler.Points()) == 0 {
		t.Fatal("sampler collected nothing")
	}
}

func TestZipfDistribution(t *testing.T) {
	db := newDB(nil)
	res, err := workload.Run(context.Background(), db.KV(), workload.Config{
		Clients:       2,
		OpsPerTxn:     3,
		WriteFraction: 0.2,
		Keys:          50,
		Dist:          workload.Zipf,
		Measure:       100 * time.Millisecond,
	})
	if err != nil || res.Commits == 0 {
		t.Fatalf("%+v %v", res, err)
	}
}

func TestKeyFormat(t *testing.T) {
	if workload.Key(7) != "k0000007" {
		t.Fatalf("Key(7) = %q", workload.Key(7))
	}
	if len(workload.Key(1234567)) != 8 {
		t.Fatal("keys must be 8 characters, as in the paper")
	}
}

func TestRetryCountsRestarts(t *testing.T) {
	// High contention on one key with tiny transactions: retries happen.
	var src clock.Logical
	db := core.New(policy.NewTO(clock.NewProcess(&src, 1)), core.Options{})
	res, err := workload.Run(context.Background(), db.KV(), workload.Config{
		Clients:       8,
		OpsPerTxn:     4,
		WriteFraction: 0.5,
		Keys:          2,
		Retry:         true,
		Measure:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Skip("no contention aborts this run")
	}
	if res.Restarts == 0 {
		t.Fatal("aborted transactions should have been retried")
	}
}

// TestBatchReadsLocalFallback drives the BatchReads knob against the
// local engine, whose transactions have no GetMulti — the kv.GetMulti
// fallback reads key-at-a-time — and checks the workload still commits
// and stays serializable.
func TestBatchReadsLocalFallback(t *testing.T) {
	var rec history.Recorder
	db := newDB(&rec)
	res, err := workload.Run(context.Background(), db.KV(), workload.Config{
		Clients:       4,
		OpsPerTxn:     8,
		WriteFraction: 0.25,
		Keys:          checkedKeys,
		BatchReads:    true,
		Measure:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatalf("no commits: %+v", res)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("batched-read workload produced non-serializable history: %v", err)
	}
}

// TestBatchReadsDistributed drives BatchReads against a real cluster,
// where the leading reads ride the coordinator's one-batch-per-server
// GetMulti path, and checks commits and serializability.
func TestBatchReadsDistributed(t *testing.T) {
	var rec history.Recorder
	c, err := cluster.Start(cluster.Config{Servers: 2, Recorder: &rec})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(context.Background(), cl, workload.Config{
		Clients:       4,
		OpsPerTxn:     8,
		WriteFraction: 0.25,
		Keys:          200,
		BatchReads:    true,
		Measure:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatalf("no commits: %+v", res)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("batched-read workload produced non-serializable history: %v", err)
	}
}

// uncertainDB is a kv.DB whose every commit ends uncertain. It records
// each transaction's operations and cancels the run after stopAfter
// commits.
type uncertainDB struct {
	stopAfter int
	cancel    context.CancelFunc
	txns      [][]workload.Op
}

func (db *uncertainDB) Begin(context.Context) (kv.Txn, error) {
	db.txns = append(db.txns, nil)
	return &uncertainTxn{db: db}, nil
}

type uncertainTxn struct{ db *uncertainDB }

func (tx *uncertainTxn) record(o workload.Op) {
	last := &tx.db.txns[len(tx.db.txns)-1]
	*last = append(*last, o)
}

func (tx *uncertainTxn) Read(_ context.Context, key string) ([]byte, error) {
	tx.record(workload.Op{Key: key})
	return nil, nil
}

func (tx *uncertainTxn) Write(_ context.Context, key string, _ []byte) error {
	tx.record(workload.Op{Key: key, Write: true})
	return nil
}

func (tx *uncertainTxn) Commit(context.Context) error {
	if len(tx.db.txns) == tx.db.stopAfter {
		tx.db.cancel()
	}
	return kv.ErrUncertain
}

func (tx *uncertainTxn) Abort(context.Context) error { return nil }

func (tx *uncertainTxn) ID() uint64 { return uint64(len(tx.db.txns)) }

// TestRetryNeverReplaysUncertainCommit: a commit that reports
// kv.ErrUncertain may have committed, so even with Retry on the client
// moves on to its next generated transaction instead of replaying the
// same one — exactly one Begin per generated transaction.
func TestRetryNeverReplaysUncertainCommit(t *testing.T) {
	cfg := workload.Config{Clients: 1, OpsPerTxn: 6, WriteFraction: 0.5, Keys: 1000, Retry: true, Measure: time.Minute, Seed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db := &uncertainDB{stopAfter: 20, cancel: cancel}
	res, _ := workload.Run(ctx, db, cfg)
	if res.Restarts != 0 {
		t.Errorf("%d restarts of uncertain commits", res.Restarts)
	}
	gen := workload.NewGen(cfg, cfg.Seed)
	if len(db.txns) != db.stopAfter {
		t.Fatalf("%d Begins for %d generated transactions", len(db.txns), db.stopAfter)
	}
	for i, got := range db.txns {
		if want := gen.Txn(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Begin %d ran %v, want generated transaction %d %v", i, got, i, want)
		}
	}
}

// lossyNetwork loses every release batch a coordinator sends: its
// connection closes under the send.
type lossyNetwork struct{ transport.Network }

func (n lossyNetwork) Dial(addr string) (transport.Conn, error) {
	conn, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return lossyConn{conn}, nil
}

type lossyConn struct{ transport.Conn }

func (c lossyConn) Send(f *wire.FrameBuf) error {
	if f.Type() == wire.TReleaseBatchReq {
		f.Release()
		_ = c.Conn.Close()
		return transport.ErrClosed
	}
	return c.Conn.Send(f)
}

// firstTxnDB begins one transaction of its DB; the next Begin ends the
// run.
type firstTxnDB struct {
	kv.DB
	cancel context.CancelFunc
	begun  bool
}

func (db *firstTxnDB) Begin(ctx context.Context) (kv.Txn, error) {
	if db.begun {
		db.cancel()
		return nil, context.Canceled
	}
	db.begun = true
	return db.DB.Begin(ctx)
}

// TestRetryNeverReplaysACommitWhoseCastWasLost: a commit over two
// servers whose release cast to the server that did not decide is lost
// has committed all the same — the decision is durable — so Commit
// returns nil, and a workload with Retry on counts it as a commit and
// does not run it again.
func TestRetryNeverReplaysACommitWhoseCastWasLost(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: 2, Network: lossyNetwork{transport.NewMem(transport.LatencyModel{})}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := tx.Write(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil || !tx.(*core.Txn).Committed() {
		t.Fatalf("Commit = %v, committed %v; want nil, true", err, tx.(*core.Txn).Committed())
	}

	// Recording from the start, so the first transaction counts however
	// soon it commits.
	ctr := &metrics.Counters{}
	ctr.SetRecording(true)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := workload.Config{Clients: 1, OpsPerTxn: 8, WriteFraction: 0.5, Keys: 1000, Retry: true, Measure: time.Minute, Counters: ctr}
	res, _ := workload.Run(runCtx, &firstTxnDB{DB: cl, cancel: cancel}, cfg)
	if res.Commits != 1 || res.Restarts != 0 {
		t.Fatalf("%d commits and %d restarts of one committed transaction, want 1 and 0", res.Commits, res.Restarts)
	}
}
