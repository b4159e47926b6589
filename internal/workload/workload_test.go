package workload_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/metrics"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

func newDB(rec *history.Recorder) *core.DB {
	var src clock.Logical
	return core.New(policy.NewTIL(clock.NewProcess(&src, 1), 1000, policy.CommitEarly, true), core.Options{Recorder: rec})
}

func TestRunProducesThroughput(t *testing.T) {
	var rec history.Recorder
	db := newDB(&rec)
	res, err := workload.Run(context.Background(), db.KV(), workload.Config{
		Clients:       4,
		OpsPerTxn:     5,
		WriteFraction: 0.3,
		Keys:          100,
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
		Keys:          100,
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
