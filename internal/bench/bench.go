// Package bench is the experiment harness reproducing the paper's
// evaluation (§8): for every figure it assembles the right test bed
// (cluster of storage servers over the in-memory network model), drives
// it with closed-loop clients, and prints the same data series the paper
// reports — throughput and commit rate per protocol.
//
// Protocols compared (as in §8): MVTIL-early, MVTIL-late, MVTO+
// (distributed timestamp ordering) and 2PL (distributed pessimistic
// locking), all over the same servers and wire protocol.
//
// Absolute numbers differ from the paper (different hardware, language
// and network substitute); the reproduction target is the shape: who
// wins, where MVTO+'s commit rate collapses, how GC bounds state size.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/metrics"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

// Engines compared throughout §8.4, in presentation order.
var Engines = []client.Mode{
	client.ModeTO,
	client.ModePessimistic,
	client.ModeTILEarly,
	client.ModeTILLate,
}

// Cell is one experiment cell: a protocol under a workload on a bed.
type Cell struct {
	Mode    client.Mode
	Bed     cluster.Bed
	Servers int
	Clients int
	// Replicas is the per-partition replication factor for the failover
	// experiment (RunFailoverCell); 0 keeps ordinary cells unreplicated.
	Replicas int
	// Workload shape (§8.3).
	OpsPerTxn int
	WriteFrac float64
	Keys      int
	// Delta is the MVTIL interval width (µs).
	Delta int64
	// Timing.
	WarmUp  time.Duration
	Measure time.Duration
	// Retry restarts aborted transactions once, as the paper's clients
	// may.
	Retry bool
}

// Row is the measured outcome of one cell.
type Row struct {
	Cell
	Throughput float64
	CommitRate float64
	Commits    int64
	Aborts     int64

	// Failover measurements (RunFailoverCell only; see its doc for the
	// probe that produces them).
	//
	// AvailabilityDipMS is the longest client-observed outage on the
	// failed-over partition: last successful probe before the first
	// failure to the first success after. RecoveryMS runs from the
	// first failed probe to that same first success — always within
	// the dip, and tighter by one probe interval plus the last good
	// transaction's duration.
	AvailabilityDipMS float64
	RecoveryMS        float64
	// ReplicaLag is the partition's standby lag in log records sampled
	// immediately before the failover — how far behind the warm standby
	// was running under load when it was asked to take over.
	ReplicaLag int64
}

// String renders the row as a table line.
func (r Row) String() string {
	repl := ""
	if r.Replicas > 1 {
		repl = fmt.Sprintf(" repl=%d", r.Replicas)
	}
	line := fmt.Sprintf("%-16s srv=%d cli=%-3d ops=%-2d wr=%3.0f%% keys=%-6d%s | %8.0f txs/s  commit=%.3f",
		r.Mode, r.Servers, r.Clients, r.OpsPerTxn, r.WriteFrac*100, r.Keys, repl, r.Throughput, r.CommitRate)
	if r.Replicas > 1 {
		line += fmt.Sprintf("  dip=%.2fms recover=%.2fms lag=%d", r.AvailabilityDipMS, r.RecoveryMS, r.ReplicaLag)
	}
	return line
}

// MarshalJSON renders the row flat for machine-readable output
// (mvtl-bench -json): the protocol by name, the workload shape, and the
// measured outcome — the same fields the BENCH_*.json trajectory files
// track, so future runs can be diffed against them mechanically.
// Failover rows (Replicas > 1) additionally carry the replication
// measurements — availability_dip_ms, recovery_ms and replica_lag are
// always present there (a zero lag is a statement, not an omission) and
// never on ordinary rows.
func (r Row) MarshalJSON() ([]byte, error) {
	if r.Replicas > 1 {
		return json.Marshal(struct {
			Mode              string  `json:"mode"`
			Servers           int     `json:"servers"`
			Replicas          int     `json:"replicas"`
			Clients           int     `json:"clients"`
			OpsPerTxn         int     `json:"ops_per_txn"`
			WriteFrac         float64 `json:"write_frac"`
			Keys              int     `json:"keys"`
			Throughput        float64 `json:"txs_per_sec"`
			CommitRate        float64 `json:"commit_rate"`
			Commits           int64   `json:"commits"`
			Aborts            int64   `json:"aborts"`
			AvailabilityDipMS float64 `json:"availability_dip_ms"`
			RecoveryMS        float64 `json:"recovery_ms"`
			ReplicaLag        int64   `json:"replica_lag"`
		}{
			Mode: r.Mode.String(), Servers: r.Servers, Replicas: r.Replicas,
			Clients: r.Clients, OpsPerTxn: r.OpsPerTxn, WriteFrac: r.WriteFrac,
			Keys: r.Keys, Throughput: r.Throughput, CommitRate: r.CommitRate,
			Commits: r.Commits, Aborts: r.Aborts,
			AvailabilityDipMS: r.AvailabilityDipMS, RecoveryMS: r.RecoveryMS,
			ReplicaLag: r.ReplicaLag,
		})
	}
	return json.Marshal(struct {
		Mode       string  `json:"mode"`
		Servers    int     `json:"servers"`
		Clients    int     `json:"clients"`
		OpsPerTxn  int     `json:"ops_per_txn"`
		WriteFrac  float64 `json:"write_frac"`
		Keys       int     `json:"keys"`
		Throughput float64 `json:"txs_per_sec"`
		CommitRate float64 `json:"commit_rate"`
		Commits    int64   `json:"commits"`
		Aborts     int64   `json:"aborts"`
	}{
		Mode: r.Mode.String(), Servers: r.Servers, Clients: r.Clients,
		OpsPerTxn: r.OpsPerTxn, WriteFrac: r.WriteFrac, Keys: r.Keys,
		Throughput: r.Throughput, CommitRate: r.CommitRate,
		Commits: r.Commits, Aborts: r.Aborts,
	})
}

// pool round-robins Begin across several coordinator connections so that
// many client goroutines do not funnel through a single connection.
type pool struct {
	clients []*client.Client
	next    atomic.Uint64
}

var _ kv.DB = (*pool)(nil)

// Begin implements kv.DB.
func (p *pool) Begin(ctx context.Context) (kv.Txn, error) {
	i := p.next.Add(1)
	return p.clients[i%uint64(len(p.clients))].Begin(ctx)
}

// coordinatorsFor sizes the connection pool: one coordinator per ~8
// client threads, at least one.
func coordinatorsFor(clients int) int {
	n := clients / 8
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// RunCell measures one cell on a fresh cluster.
func RunCell(ctx context.Context, cell Cell) (Row, error) {
	c, err := cluster.Start(cluster.Config{
		Servers: cell.Servers,
		Bed:     cell.Bed,
		ServerConfig: server.Config{
			LockWaitTimeout:  500 * time.Millisecond,
			WriteLockTimeout: 2 * time.Second,
			ScanInterval:     250 * time.Millisecond,
		},
	})
	if err != nil {
		return Row{}, err
	}
	defer c.Close()
	return runOnCluster(ctx, c, cell, nil)
}

// runOnCluster drives an existing cluster with the cell's workload.
func runOnCluster(ctx context.Context, c *cluster.Cluster, cell Cell, sampler *metrics.Sampler) (Row, error) {
	return runOnClusterCounted(ctx, c, cell, sampler, nil)
}

// runOnClusterCounted is runOnCluster with externally observable
// counters (for the over-time experiments).
func runOnClusterCounted(ctx context.Context, c *cluster.Cluster, cell Cell, sampler *metrics.Sampler, ctr *metrics.Counters) (Row, error) {
	p := &pool{}
	for i := 0; i < coordinatorsFor(cell.Clients); i++ {
		cl, err := c.NewClient(cell.Mode, cell.Delta, nil)
		if err != nil {
			return Row{}, err
		}
		p.clients = append(p.clients, cl)
	}
	res, err := workload.RunWithSampler(ctx, p, workload.Config{
		Clients:       cell.Clients,
		OpsPerTxn:     cell.OpsPerTxn,
		WriteFraction: cell.WriteFrac,
		Keys:          cell.Keys,
		WarmUp:        cell.WarmUp,
		Measure:       cell.Measure,
		TxnTimeout:    2 * time.Second,
		Retry:         cell.Retry,
		Counters:      ctr,
	}, sampler)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Cell:       cell,
		Throughput: res.Throughput(),
		CommitRate: res.CommitRate(),
		Commits:    res.Commits,
		Aborts:     res.Aborts,
	}, nil
}

// Sweep runs a list of cells, printing each row as it completes.
func Sweep(ctx context.Context, w io.Writer, cells []Cell) ([]Row, error) {
	rows := make([]Row, 0, len(cells))
	for _, cell := range cells {
		row, err := RunCell(ctx, cell)
		if err != nil {
			return rows, fmt.Errorf("cell %+v: %w", cell, err)
		}
		fmt.Fprintln(w, row)
		rows = append(rows, row)
	}
	return rows, nil
}

// Scale compresses the paper's client counts onto a single machine; the
// paper sweeps up to 600 clients over dozens of cores — we keep the
// shape with a smaller range.
type Scale struct {
	// ClientPoints replaces the x-axis of the concurrency sweeps.
	ClientPoints []int
	// Measure per cell.
	Measure time.Duration
	// WarmUp per cell.
	WarmUp time.Duration
}

// DefaultScale is used by the go-test benchmarks; cmd/mvtl-bench can run
// bigger sweeps.
func DefaultScale() Scale {
	return Scale{
		ClientPoints: []int{4, 8, 16, 32, 64},
		Measure:      1200 * time.Millisecond,
		WarmUp:       300 * time.Millisecond,
	}
}

// QuickScale is a fast smoke-test scale for unit tests.
func QuickScale() Scale {
	return Scale{
		ClientPoints: []int{4, 8},
		Measure:      250 * time.Millisecond,
		WarmUp:       50 * time.Millisecond,
	}
}
