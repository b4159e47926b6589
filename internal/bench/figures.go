package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/metrics"
	"github.com/lpd-epfl/mvtl/internal/server"
)

// delta is the MVTIL interval width used throughout the evaluation
// (Δ = 5ms, §8).
const delta = 5000

// Fig1 reproduces Figure 1: throughput and commit rate versus the number
// of clients on the local bed (20 ops/txn, 25% writes, 10K keys,
// 3 servers).
func Fig1(ctx context.Context, w io.Writer, sc Scale) ([]Row, error) {
	fmt.Fprintln(w, "== Figure 1: concurrency sweep, local bed (20 ops, 25% writes, 10K keys, 3 servers) ==")
	var cells []Cell
	for _, mode := range Engines {
		for _, clients := range sc.ClientPoints {
			cells = append(cells, Cell{
				Mode: mode, Bed: cluster.BedLocal, Servers: 3,
				Clients: clients, OpsPerTxn: 20, WriteFrac: 0.25, Keys: 10_000,
				Delta: delta, WarmUp: sc.WarmUp, Measure: sc.Measure,
			})
		}
	}
	return Sweep(ctx, w, cells)
}

// Fig2 reproduces Figure 2: the same sweep on the cloud bed (50K keys,
// 8 servers, slow jittery network).
func Fig2(ctx context.Context, w io.Writer, sc Scale) ([]Row, error) {
	fmt.Fprintln(w, "== Figure 2: concurrency sweep, cloud bed (20 ops, 25% writes, 50K keys, 8 servers) ==")
	var cells []Cell
	for _, mode := range Engines {
		for _, clients := range sc.ClientPoints {
			cells = append(cells, Cell{
				Mode: mode, Bed: cluster.BedCloud, Servers: 8,
				Clients: clients, OpsPerTxn: 20, WriteFrac: 0.25, Keys: 50_000,
				Delta: delta, WarmUp: sc.WarmUp, Measure: sc.Measure,
			})
		}
	}
	return Sweep(ctx, w, cells)
}

// Fig3 reproduces Figure 3: throughput and commit rate versus the write
// fraction (local bed, fixed concurrency, 20 ops, 10K keys). The paper
// uses 90 clients; the scale's largest point stands in.
func Fig3(ctx context.Context, w io.Writer, sc Scale) ([]Row, error) {
	fmt.Fprintln(w, "== Figure 3: write-fraction sweep, local bed (20 ops, 10K keys, 3 servers) ==")
	clients := sc.ClientPoints[len(sc.ClientPoints)-1]
	var cells []Cell
	for _, mode := range []client.Mode{client.ModeTO, client.ModePessimistic, client.ModeTILEarly} {
		for _, wf := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			cells = append(cells, Cell{
				Mode: mode, Bed: cluster.BedLocal, Servers: 3,
				Clients: clients, OpsPerTxn: 20, WriteFrac: wf, Keys: 10_000,
				Delta: delta, WarmUp: sc.WarmUp, Measure: sc.Measure,
			})
		}
	}
	return Sweep(ctx, w, cells)
}

// Fig4 reproduces Figure 4: small transactions (8 operations, 50%
// writes) under increasing concurrency on the local bed.
func Fig4(ctx context.Context, w io.Writer, sc Scale) ([]Row, error) {
	fmt.Fprintln(w, "== Figure 4: small transactions (8 ops, 50% writes, 10K keys, 3 servers) ==")
	var cells []Cell
	for _, mode := range Engines {
		for _, clients := range sc.ClientPoints {
			cells = append(cells, Cell{
				Mode: mode, Bed: cluster.BedLocal, Servers: 3,
				Clients: clients, OpsPerTxn: 8, WriteFrac: 0.5, Keys: 10_000,
				Delta: delta, WarmUp: sc.WarmUp, Measure: sc.Measure,
			})
		}
	}
	return Sweep(ctx, w, cells)
}

// Fig5 reproduces Figure 5: throughput versus the number of servers on
// the cloud bed, at 75% and 50% reads, fixed client count.
func Fig5(ctx context.Context, w io.Writer, sc Scale) ([]Row, error) {
	fmt.Fprintln(w, "== Figure 5: server sweep, cloud bed (20 ops, 100K keys) ==")
	clients := sc.ClientPoints[len(sc.ClientPoints)-1]
	var cells []Cell
	for _, wf := range []float64{0.25, 0.5} {
		for _, mode := range Engines {
			for _, servers := range []int{1, 2, 4, 8} {
				cells = append(cells, Cell{
					Mode: mode, Bed: cluster.BedCloud, Servers: servers,
					Clients: clients, OpsPerTxn: 20, WriteFrac: wf, Keys: 100_000,
					Delta: delta, WarmUp: sc.WarmUp, Measure: sc.Measure,
				})
			}
		}
	}
	return Sweep(ctx, w, cells)
}

// StatePoint is one sample of the state-size experiments.
type StatePoint struct {
	Elapsed  time.Duration
	Locks    int64
	Versions int64
	Commits  int64
}

// Fig6 reproduces Figure 6: the number of locks and versions over time
// with garbage collection off (MVTO+ and MVTIL-early) and on (MVTIL-GC
// with a periodic purge). It returns one series per engine.
func Fig6(ctx context.Context, w io.Writer, sc Scale) (map[string][]StatePoint, error) {
	fmt.Fprintln(w, "== Figure 6: lock and version state over time, GC on and off (20 ops, 50% writes, 8K keys) ==")
	configs := []struct {
		name  string
		mode  client.Mode
		purge bool
	}{
		{name: "mvto+", mode: client.ModeTO, purge: false},
		{name: "mvtil-early", mode: client.ModeTILEarly, purge: false},
		{name: "mvtil-gc", mode: client.ModeTILEarly, purge: true},
	}
	out := make(map[string][]StatePoint, len(configs))
	for _, cfgv := range configs {
		series, err := stateRun(ctx, cfgv.mode, cfgv.purge, sc)
		if err != nil {
			return out, err
		}
		out[cfgv.name] = series
		for _, p := range series {
			fmt.Fprintf(w, "%-12s t=%5.1fs locks=%-8d versions=%-8d\n",
				cfgv.name, p.Elapsed.Seconds(), p.Locks, p.Versions)
		}
	}
	return out, nil
}

// Fig7 reproduces Figure 7: throughput and commit rate over time with
// GC on and off; without purging, throughput decays as state accumulates.
func Fig7(ctx context.Context, w io.Writer, sc Scale) (map[string][]StatePoint, error) {
	fmt.Fprintln(w, "== Figure 7: performance over time, GC on and off ==")
	configs := []struct {
		name  string
		mode  client.Mode
		purge bool
	}{
		{name: "mvto+", mode: client.ModeTO, purge: false},
		{name: "mvtil-early", mode: client.ModeTILEarly, purge: false},
		{name: "mvtil-gc", mode: client.ModeTILEarly, purge: true},
	}
	out := make(map[string][]StatePoint, len(configs))
	for _, cfgv := range configs {
		series, err := stateRun(ctx, cfgv.mode, cfgv.purge, sc)
		if err != nil {
			return out, err
		}
		out[cfgv.name] = series
		var prev int64
		for _, p := range series {
			fmt.Fprintf(w, "%-12s t=%5.1fs commits/interval=%-8d\n",
				cfgv.name, p.Elapsed.Seconds(), p.Commits-prev)
			prev = p.Commits
		}
	}
	return out, nil
}

// stateRun drives one over-time configuration, sampling server state
// periodically; with purge enabled the timestamp service broadcasts a
// recent bound, bounding the state (§8.4.5).
func stateRun(ctx context.Context, mode client.Mode, purge bool, sc Scale) ([]StatePoint, error) {
	c, err := cluster.Start(cluster.Config{
		Servers: 3,
		Bed:     cluster.BedLocal,
		ServerConfig: server.Config{
			LockWaitTimeout:  500 * time.Millisecond,
			WriteLockTimeout: 2 * time.Second,
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// The measurement runs several sampling intervals long.
	measure := 6 * sc.Measure
	sampleEvery := measure / 8
	if purge {
		if err := c.StartTimestampService(sampleEvery, sampleEvery/2); err != nil {
			return nil, err
		}
	}

	statsCl, err := c.NewClient(client.ModeTILEarly, delta, nil)
	if err != nil {
		return nil, err
	}

	var ctr metrics.Counters
	var mu sync.Mutex
	var series []StatePoint
	start := time.Now()
	sampler := metrics.NewSampler(sampleEvery, func() map[string]float64 {
		var locks, versions int64
		for _, addr := range c.Addrs() {
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			st, err := statsCl.ServerStats(sctx, addr)
			cancel()
			if err == nil {
				locks += st.LockEntries
				versions += st.Versions
			}
		}
		mu.Lock()
		series = append(series, StatePoint{
			Elapsed:  time.Since(start),
			Locks:    locks,
			Versions: versions,
			Commits:  ctr.Snapshot().Commits,
		})
		mu.Unlock()
		return map[string]float64{"locks": float64(locks), "versions": float64(versions)}
	})

	cell := Cell{
		Mode: mode, Bed: cluster.BedLocal, Servers: 3,
		Clients: 16, OpsPerTxn: 20, WriteFrac: 0.5, Keys: 8_000,
		Delta: delta, WarmUp: 0, Measure: measure,
	}
	if _, err := runOnClusterCounted(ctx, c, cell, sampler, &ctr); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]StatePoint(nil), series...), nil
}
