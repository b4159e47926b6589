// Command mvtl-bench regenerates the paper's evaluation figures (§8.4)
// from the command line, with adjustable scale. Each experiment prints
// the data series the corresponding figure plots: throughput and commit
// rate per protocol (MVTO+, 2PL, MVTIL-early, MVTIL-late).
//
// Usage:
//
//	mvtl-bench -exp fig1
//	mvtl-bench -exp all -measure 3s -clients 8,16,32,64,128
//	mvtl-bench -exp fig1 -json   # machine-readable results on stdout
//	mvtl-bench -exp failover -replicas 2   # fail a partition head over mid-run
//
// Single-cell throughput, allocation and latency figures come from the
// benchmark in benchmarks/ (see its README), not from this command.
//
// It also fronts the deterministic fault-injection bed (see TESTING.md),
// which runs on a virtual timeline:
//
//	mvtl-bench -faults partition-crash -fault-verify
//	mvtl-bench -faults all -fault-seed 7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/lpd-epfl/mvtl/internal/bench"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/faultbed"
	"github.com/lpd-epfl/mvtl/internal/policy"
)

// runFaults executes fault-injection scenarios and reports violations:
// every scenario is serializability-checked and must end with every key
// it touched usable (Result.LiveErr), and with verify the
// transcript-asserted ones run twice so a determinism regression (H13)
// fails the command, not just a test. Every scenario runs on a virtual
// timeline: modeled delays cost no wall clock, and the outcome does not
// depend on how fast the machine is.
func runFaults(name string, seed int64, verify bool) error {
	var scenarios []faultbed.Scenario
	if name == "all" {
		scenarios = faultbed.Matrix()
	} else {
		s, err := faultbed.Find(name)
		if err != nil {
			return err
		}
		scenarios = []faultbed.Scenario{s}
	}
	failed := false
	for _, s := range scenarios {
		if seed != 0 {
			s.Seed = seed
		}
		start := time.Now()
		res, err := faultbed.RunVirtual(s)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Printf("[%8.3fs] ", time.Since(start).Seconds())
		fmt.Println(res.Summary())
		if res.CheckErr != nil || res.CertErr != nil || res.LiveErr != nil {
			failed = true
		}
		if verify && s.AssertTranscript {
			again, err := faultbed.RunVirtual(s)
			if err != nil {
				return fmt.Errorf("%s (verify run): %w", s.Name, err)
			}
			if res.Transcript != again.Transcript || res.FaultLog != again.FaultLog || res.Events != again.Events {
				failed = true
				fmt.Printf("%s: DETERMINISM FAILURE — same seed, different runs\n--- run 1 transcript\n%s--- run 2 transcript\n%s",
					s.Name, res.Transcript, again.Transcript)
			} else {
				fmt.Printf("%s: reproduced byte-identically (seed %d)\n", s.Name, res.Scenario.Seed)
			}
		}
	}
	if failed {
		return fmt.Errorf("fault matrix failed")
	}
	return nil
}

func parseClients(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad client count %q: %w", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	log.SetPrefix("mvtl-bench: ")
	log.SetFlags(0)

	exp := flag.String("exp", "all", "experiment: fig1..fig7, all, or failover")
	measure := flag.Duration("measure", 1500*time.Millisecond, "measurement window per cell")
	warmup := flag.Duration("warmup", 400*time.Millisecond, "warm-up per cell")
	clients := flag.String("clients", "4,8,16,32,64", "client sweep points (comma separated)")

	// -exp failover flags.
	modeFlag := flag.String("mode", "mvtil-early", "protocol for -exp failover")
	servers := flag.Int("servers", 3, "servers for -exp failover")
	nclients := flag.Int("nclients", 32, "clients for -exp failover")
	ops := flag.Int("ops", 20, "operations per transaction for -exp failover")
	writes := flag.Float64("writes", 0.25, "write fraction for -exp failover")
	keys := flag.Int("keys", 10000, "keyspace for -exp failover")
	cloud := flag.Bool("cloud", false, "use the cloud bed for -exp failover")
	replicas := flag.Int("replicas", 2, "per-partition replication factor for -exp failover")

	// Fault-injection bed flags.
	faults := flag.String("faults", "", "run a fault-injection scenario (a name from the matrix, or \"all\") instead of a benchmark")
	faultSeed := flag.Int64("fault-seed", 0, "override the scenario seed (0 keeps the scenario's own)")
	faultVerify := flag.Bool("fault-verify", false, "run each transcript-asserted scenario twice and require byte-identical transcripts")

	jsonOut := flag.Bool("json", false, "emit results as JSON on stdout instead of tables (benchmarks only)")
	flag.Parse()

	if *faults != "" {
		if err := runFaults(*faults, *faultSeed, *faultVerify); err != nil {
			log.Fatal(err)
		}
		return
	}

	points, err := parseClients(*clients)
	if err != nil {
		log.Fatal(err)
	}
	sc := bench.Scale{ClientPoints: points, Measure: *measure, WarmUp: *warmup}
	ctx := context.Background()
	var w io.Writer = os.Stdout
	if *jsonOut {
		w = io.Discard // tables off; the JSON document is the output
	}

	// Every experiment returns its data series; with -json the collected
	// results are emitted as one document instead of the printed tables.
	type figFn func() (any, error)
	figs := map[string]figFn{
		"fig1": func() (any, error) { return bench.Fig1(ctx, w, sc) },
		"fig2": func() (any, error) { return bench.Fig2(ctx, w, sc) },
		"fig3": func() (any, error) { return bench.Fig3(ctx, w, sc) },
		"fig4": func() (any, error) { return bench.Fig4(ctx, w, sc) },
		"fig5": func() (any, error) { return bench.Fig5(ctx, w, sc) },
		"fig6": func() (any, error) { return bench.Fig6(ctx, w, sc) },
		"fig7": func() (any, error) { return bench.Fig7(ctx, w, sc) },
	}
	emit := func(v any) {
		if !*jsonOut {
			return
		}
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	}

	switch *exp {
	case "all":
		results := make(map[string]any)
		for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"} {
			res, err := figs[name]()
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			results[name] = res
			fmt.Fprintln(w)
		}
		emit(results)
	case "failover":
		// Fail the partition-0 head over mid-measurement on a replicated
		// cluster and report the client-observed availability dip; the
		// recorded history must stay serializable across the failover.
		mode, err := policy.Parse(*modeFlag)
		if err != nil {
			log.Fatal(err)
		}
		bed := cluster.BedLocal
		if *cloud {
			bed = cluster.BedCloud
		}
		row, err := bench.RunFailoverCell(ctx, bench.Cell{
			Mode: mode, Bed: bed, Servers: *servers, Replicas: *replicas,
			Clients: *nclients, OpsPerTxn: *ops, WriteFrac: *writes, Keys: *keys,
			Delta: 5000, WarmUp: *warmup, Measure: *measure,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(w, row)
		emit(row)
	default:
		fn, ok := figs[*exp]
		if !ok {
			log.Fatalf("unknown experiment %q", *exp)
		}
		res, err := fn()
		if err != nil {
			log.Fatal(err)
		}
		emit(map[string]any{*exp: res})
	}
}
