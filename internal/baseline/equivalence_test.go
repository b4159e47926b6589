package baseline_test

// Equivalence tests for Theorems 5 and 6: MVTL-TO specializes MVTL to
// behave exactly like MVTO+, and MVTL-Pessimistic like pessimistic
// concurrency control. We replay identical randomly generated workloads
// (single-threaded, so decisions are deterministic) against the MVTL
// policy and the native baseline and require identical commit/abort
// decisions and identical read results.
//
// The second half holds the coordinator to the in-process store the
// same way: one engine, two backends, one behaviour.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/baseline"
	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// wlOp is one step of a generated workload.
type wlOp struct {
	txn    int // workload-level transaction index
	kind   int // 0=read 1=write 2=commit 3=abort
	key    string
	value  []byte
	clockT int64 // clock reading when the transaction starts
}

// genWorkload builds an interleaved multi-transaction workload. Every
// transaction gets a distinct, increasing start clock; operations of
// different transactions interleave.
func genWorkload(rng *rand.Rand, txns, keys int) []wlOp {
	type txnPlan struct {
		ops  []wlOp
		next int
	}
	plans := make([]*txnPlan, txns)
	for i := range plans {
		n := 1 + rng.Intn(5)
		p := &txnPlan{}
		for j := 0; j < n; j++ {
			op := wlOp{txn: i, key: fmt.Sprintf("k%d", rng.Intn(keys)), clockT: int64((i + 1) * 10)}
			if rng.Intn(2) == 0 {
				op.kind = 0
			} else {
				op.kind = 1
				op.value = []byte(fmt.Sprintf("t%d-%d", i, j))
			}
			p.ops = append(p.ops, op)
		}
		end := wlOp{txn: i, clockT: int64((i + 1) * 10)}
		if rng.Intn(8) == 0 {
			end.kind = 3
		} else {
			end.kind = 2
		}
		p.ops = append(p.ops, end)
		plans[i] = p
	}
	var out []wlOp
	live := make([]int, txns)
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		i := rng.Intn(len(live))
		p := plans[live[i]]
		out = append(out, p.ops[p.next])
		p.next++
		if p.next == len(p.ops) {
			live = append(live[:i], live[i+1:]...)
		}
	}
	return out
}

// replayResult captures observable behaviour of a workload replay.
type replayResult struct {
	committed []bool
	reads     []string // rendered "txn/key=value" in execution order
}

// replay runs ops against db; per-transaction clocks are pinned via
// mkTxn, which starts transaction i.
func replay(t *testing.T, ops []wlOp, txns int, mkTxn func(i int, clockT int64) kv.Txn) replayResult {
	t.Helper()
	ctx := context.Background()
	res := replayResult{committed: make([]bool, txns)}
	txs := make([]kv.Txn, txns)
	dead := make([]bool, txns)
	for _, op := range ops {
		if dead[op.txn] {
			continue
		}
		if txs[op.txn] == nil {
			txs[op.txn] = mkTxn(op.txn, op.clockT)
		}
		tx := txs[op.txn]
		switch op.kind {
		case 0:
			v, err := tx.Read(ctx, op.key)
			if err != nil {
				dead[op.txn] = true
				continue
			}
			res.reads = append(res.reads, fmt.Sprintf("%d/%s=%s", op.txn, op.key, v))
		case 1:
			if err := tx.Write(ctx, op.key, op.value); err != nil {
				dead[op.txn] = true
			}
		case 2:
			if err := tx.Commit(ctx); err == nil {
				res.committed[op.txn] = true
			}
			dead[op.txn] = true
		case 3:
			_ = tx.Abort(ctx)
			dead[op.txn] = true
		}
	}
	return res
}

// TestTOEquivalentToMVTO replays random workloads against MVTL-TO and
// native MVTO+ and requires identical commit decisions and read results
// (Theorem 5).
func TestTOEquivalentToMVTO(t *testing.T) {
	const rounds = 60
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		const txns, keys = 8, 4
		ops := genWorkload(rng, txns, keys)

		var srcA clock.Logical
		mvtlDB := core.New(policy.NewTO(clock.NewProcess(&srcA, 0)), core.Options{})
		a := replay(t, ops, txns, func(i int, clockT int64) kv.Txn {
			tx, err := mvtlDB.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var m clock.Manual
			m.Set(clockT)
			tx.SetClock(clock.NewProcess(&m, int32(i+1)))
			return tx
		})

		var srcB clock.Logical
		mvtoDB := baseline.NewMVTO(clock.NewProcess(&srcB, 0), nil)
		b := replay(t, ops, txns, func(i int, clockT int64) kv.Txn {
			// Force the same timestamp (clockT, i+1) as MVTL-TO got.
			tx, err := mvtoDB.BeginAt(context.Background(), timestamp.New(clockT, int32(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			return tx
		})

		if fmt.Sprint(a.committed) != fmt.Sprint(b.committed) {
			t.Fatalf("round %d: commit decisions diverge\nops: %+v\nmvtl-to: %v\nmvto+:  %v",
				round, ops, a.committed, b.committed)
		}
		if fmt.Sprint(a.reads) != fmt.Sprint(b.reads) {
			t.Fatalf("round %d: reads diverge\nmvtl-to: %v\nmvto+:  %v", round, a.reads, b.reads)
		}
	}
}

// TestPessimisticNeverAbortsSerial replays serial (non-interleaved)
// workloads against MVTL-Pessimistic: like 2PL, a serial execution never
// aborts and reads match the 2PL baseline (Theorem 6).
func TestPessimisticNeverAbortsSerial(t *testing.T) {
	const rounds = 40
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) + 500))
		const txns, keys = 6, 3
		// Serial workload: transactions do not interleave.
		var ops []wlOp
		for i := 0; i < txns; i++ {
			n := 1 + rng.Intn(4)
			for j := 0; j < n; j++ {
				kind := rng.Intn(2)
				ops = append(ops, wlOp{
					txn: i, kind: kind,
					key:    fmt.Sprintf("k%d", rng.Intn(keys)),
					value:  []byte(fmt.Sprintf("t%d-%d", i, j)),
					clockT: int64((i + 1) * 10),
				})
			}
			ops = append(ops, wlOp{txn: i, kind: 2, clockT: int64((i + 1) * 10)})
		}

		pessDB := core.New(policy.NewPessimistic(), core.Options{})
		a := replay(t, ops, txns, func(i int, clockT int64) kv.Txn {
			tx, err := pessDB.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return tx
		})
		for i, ok := range a.committed {
			if !ok {
				t.Fatalf("round %d: serial txn %d aborted under MVTL-Pessimistic", round, i)
			}
		}

		twoplDB := baseline.NewTwoPL(nil)
		b := replay(t, ops, txns, func(i int, clockT int64) kv.Txn {
			tx, err := twoplDB.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return tx
		})
		if fmt.Sprint(a.reads) != fmt.Sprint(b.reads) {
			t.Fatalf("round %d: reads diverge\npessimistic: %v\n2pl:        %v", round, a.reads, b.reads)
		}
	}
}

// wireModes pairs each coordinator mode with the policy it names, built
// here by hand so that the test does not pass by sharing the table, and
// with the subtest's name, the mode's command-line spelling.
var wireModes = []struct {
	name   string
	mode   client.Mode
	policy func(clk *clock.Process, delta int64) core.Policy
}{
	{"mvtil-early", client.ModeTILEarly, func(clk *clock.Process, delta int64) core.Policy {
		return policy.NewTIL(clk, delta, policy.CommitEarly, true)
	}},
	{"mvtil-late", client.ModeTILLate, func(clk *clock.Process, delta int64) core.Policy {
		return policy.NewTIL(clk, delta, policy.CommitLate, true)
	}},
	{"mvto+", client.ModeTO, func(clk *clock.Process, _ int64) core.Policy { return policy.NewTO(clk) }},
	{"2pl", client.ModePessimistic, func(*clock.Process, int64) core.Policy { return policy.NewPessimistic() }},
}

// wireDelta is the MVTIL interval width of the equivalence schedules;
// their clock advances by less between transactions, so that intervals
// overlap the frozen locks of earlier ones and shrink.
const wireDelta = 40

// engine is one way to begin a transaction, and the manual clock it
// reads as process 1.
type engine struct {
	begin func() *core.Txn
	ticks *clock.Manual
}

// twoEngines returns the two engines of mode m: the in-process store,
// and a coordinator over one Mem server.
func twoEngines(t *testing.T, m int) (local, wire engine) {
	t.Helper()
	ctx := context.Background()
	local.ticks, wire.ticks = new(clock.Manual), new(clock.Manual)
	db := core.New(wireModes[m].policy(clock.NewProcess(local.ticks, 1), wireDelta), core.Options{})
	n := transport.NewMem(transport.LatencyModel{})
	srv, err := server.New(server.Config{Addr: "s0", Network: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cl, err := client.New(client.Config{ID: 1, Servers: []string{"s0"}, Network: n, Mode: wireModes[m].mode, Delta: wireDelta, Clock: wire.ticks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	local.begin = func() *core.Txn {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	wire.begin = func() *core.Txn {
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tx.(*core.Txn)
	}
	return local, wire
}

// sequentialRun replays a seeded schedule of transactions on e, one
// after the other as its clock advances, and renders what each
// observed: its reads, its outcome and its commit timestamp. Every
// fourth transaction is read-only.
func sequentialRun(seed int64, e engine) []string {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for i := 0; i < 24; i++ {
		e.ticks.Advance(1 + rng.Int63n(wireDelta))
		tx := e.begin()
		line := fmt.Sprintf("t%d:", i)
		var err error
		for j, n := 0, 1+rng.Intn(5); j < n && err == nil; j++ {
			key := fmt.Sprintf("k%d", rng.Intn(4))
			if i%4 == 0 || rng.Intn(2) == 0 {
				var v []byte
				v, err = tx.Read(ctx, key)
				line += fmt.Sprintf(" r(%s)=%q", key, v)
			} else {
				err = tx.Write(ctx, key, []byte(fmt.Sprintf("t%d-%d", i, j)))
				line += fmt.Sprintf(" w(%s)", key)
			}
		}
		switch {
		case err != nil:
			line += " failed"
		case rng.Intn(8) == 0:
			_ = tx.Abort(ctx)
			line += " gave up"
		default:
			err = tx.Commit(ctx)
		}
		out = append(out, fmt.Sprintf("%s committed=%v aborted=%v at %v", line, tx.Committed(), errors.Is(err, kv.ErrAborted), tx.CommitTS))
	}
	return out
}

// TestWireEquivalentToLocal holds the coordinator to the in-process
// store: one engine and one set of policies run over both backends, so
// the same sequential schedule on the same clock must give every
// transaction the same reads, the same outcome and the same commit
// timestamp — for all four modes, read-only MVTIL transactions
// included (which the coordinator's own commit pick used to place at
// or above its clock, and the policy places at the bottom of what it
// locked).
func TestWireEquivalentToLocal(t *testing.T) {
	for m := range wireModes {
		t.Run(wireModes[m].name, func(t *testing.T) {
			local, wire := twoEngines(t, m)
			for seed := int64(1); seed <= 20; seed++ {
				a := sequentialRun(seed, local)
				b := sequentialRun(seed, wire)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("seed %d diverges:\nlocal %s\nwire  %s", seed, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestWireReadOnlyCommitsAtTheBottom is the case the two engines used to
// disagree on, alone: a read-only MVTIL-early transaction commits at
// the smallest timestamp it locked — just above the version it read, ⊥
// here — on either backend, not at its clock.
func TestWireReadOnlyCommitsAtTheBottom(t *testing.T) {
	local, wire := twoEngines(t, 0)
	for name, e := range map[string]engine{"local": local, "wire": wire} {
		e.ticks.Set(1000)
		tx := e.begin()
		if _, err := tx.Read(context.Background(), "x"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		if want := timestamp.Zero.Next(); tx.CommitTS != want {
			t.Errorf("%s: read-only transaction committed at %v, want %v, the bottom of its read locks", name, tx.CommitTS, want)
		}
	}
}

// TestWireGhostAbortUnderTO runs the §5.5 schedule of
// policy.TestGhostAbortUnderTO through the coordinator: the aborted
// T2's leftover read lock kills T1 over the wire as it does in process.
func TestWireGhostAbortUnderTO(t *testing.T) {
	local, wire := twoEngines(t, 2)
	for name, e := range map[string]engine{"local": local, "wire": wire} {
		ctx := context.Background()
		at := func(time int64, proc int32) *core.Txn {
			var m clock.Manual
			m.Set(time)
			tx := e.begin()
			tx.SetClock(clock.NewProcess(&m, proc))
			return tx
		}
		t3, t2, t1 := at(30, 3), at(20, 2), at(10, 1)
		if _, err := t3.Read(ctx, "x"); err != nil {
			t.Fatal(err)
		}
		if err := t3.Commit(ctx); err != nil || t3.CommitTS != timestamp.New(30, 3) {
			t.Fatalf("%s: T3 commit at %v: %v", name, t3.CommitTS, err)
		}
		if _, err := t2.Read(ctx, "y"); err != nil {
			t.Fatal(err)
		}
		if err := t2.Write(ctx, "x", []byte("t2")); err != nil {
			t.Fatal(err)
		}
		if err := t2.Commit(ctx); !errors.Is(err, kv.ErrAborted) {
			t.Fatalf("%s: T2 must abort (T3 read X above its timestamp): %v", name, err)
		}
		if err := t1.Write(ctx, "y", []byte("t1")); err != nil {
			t.Fatal(err)
		}
		if err := t1.Commit(ctx); !errors.Is(err, kv.ErrAborted) {
			t.Fatalf("%s: T1 must suffer the ghost abort under TO: %v", name, err)
		}
	}
}
