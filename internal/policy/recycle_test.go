package policy_test

import (
	"context"
	"runtime"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// TestRecycledScratchLeaksNoSetting: a transaction's settings ride its
// pooled scratch — the clock override, and the mark that its policy
// state is set up — and none of them reaches the transaction that takes
// the scratch over. a runs MVTL-TO on a skewed clock (process 7, far
// ahead) and finishes; b, on a's scratch, finds no override and must set
// its policy state up afresh; c then commits at a timestamp of the
// policy's default clock (process 1). It holds on either backend: the
// in-process store's, and the coordinator's over one Mem server.
func TestRecycledScratchLeaksNoSetting(t *testing.T) {
	for _, backend := range []string{"local", "remote"} {
		t.Run(backend, func(t *testing.T) { recycledScratchLeaksNoSetting(t, backend) })
	}
}

func recycledScratchLeaksNoSetting(t *testing.T, backend string) {
	// A sync.Pool keeps its entries per P: on one P, b gets a's scratch
	// back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ticks clock.Manual
	ticks.Set(1000)
	ctx := context.Background()
	db := core.New(policy.NewTO(clock.NewProcess(&ticks, 1)), core.Options{}).KV()
	if backend == "remote" {
		n := transport.NewMem(transport.LatencyModel{})
		srv, err := server.New(server.Config{Addr: "s0", Network: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cl, err := client.New(client.Config{ID: 1, Servers: []string{"s0"}, Network: n, Mode: client.ModeTO, Clock: &ticks})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		db = cl
	}
	begin := func() *core.Txn {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tx.(*core.Txn)
	}

	var ahead clock.Manual
	ahead.Set(50_000)
	skewed := clock.NewProcess(&ahead, 7)
	a := begin()
	a.SetClock(skewed)
	if _, err := a.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	aScratch := a.Scratch()
	if ts, first := policy.PooledState[timestamp.Timestamp](a); first || ts.Proc != 7 {
		t.Fatalf("a, after its first read: timestamp %v, first use %v; want one of the skewed clock, set up", *ts, first)
	}
	if err := a.Write(ctx, "x", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	b := begin()
	sc := b.Scratch()
	if sc != aScratch {
		// A scratch not handed on would prove nothing, but the race
		// detector's pool drops entries at random.
		if !raceEnabled {
			t.Fatalf("b runs on scratch %p, a ran on %p", sc, aScratch)
		}
		t.Logf("b runs on scratch %p, a ran on %p", sc, aScratch)
	}
	if c := sc.Clock(); c != nil {
		t.Fatalf("b inherited a clock override, at %v", c.Now())
	}
	def := clock.NewProcess(&ticks, 1)
	if got := policy.TxnClock(b, def); got != def {
		t.Fatal("b does not read the policy's default clock")
	}
	if ts, first := policy.PooledState[timestamp.Timestamp](b); !first {
		t.Fatalf("b reaches its policy state, %v, as already set up", *ts)
	}
	if err := b.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	c := begin()
	if _, err := c.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(ctx, "y", []byte("from c")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if c.CommitTS.Proc != 1 || c.CommitTS.Time >= 50_000 {
		t.Fatalf("c committed at %v, want a timestamp of the default clock (process 1, before 50000)", c.CommitTS)
	}
}

// TestPrefBuildsPossTSPerTxn: Pref keeps its state in the pooled scratch
// like every policy, and each transaction builds its own PossTS from its
// own preferential timestamp rather than inherit its predecessor's.
func TestPrefBuildsPossTSPerTxn(t *testing.T) {
	var ticks clock.Manual
	db := core.New(policy.NewPref(clock.NewProcess(&ticks, 1), policy.OffsetAlternatives(-1, -10)), core.Options{})
	ctx := context.Background()
	for _, now := range []int64{100, 200} {
		ticks.Set(now)
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(ctx, "x"); err != nil {
			t.Fatal(err)
		}
		pref := timestamp.New(now, 1)
		poss := policy.PossTS(tx)
		if !poss.Contains(pref) {
			t.Fatalf("the transaction begun at %d has PossTS %v, without its preferential timestamp %v", now, poss, pref)
		}
		if lo, _ := poss.Min(); lo.Time < now-10 {
			t.Fatalf("the transaction begun at %d has PossTS %v, reaching below its alternatives", now, poss)
		}
		if err := tx.Write(ctx, "x", []byte{byte(now)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if tx.CommitTS != pref {
			t.Fatalf("the transaction begun at %d committed at %v, want %v", now, tx.CommitTS, pref)
		}
	}
}
