package policy_test

// The deterministic schedule tests reproduce, step by step, the example
// schedules of the paper (§5.3, §5.5, Theorem 2, Theorem 3) and verify
// that each policy behaves as claimed: where timestamp ordering aborts,
// the corresponding MVTL policy commits, and vice versa.

import (
	"context"
	"errors"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
)

// procClock returns a Process clock pinned at time t with process id p.
func procClock(t int64, p int32) *clock.Process {
	var m clock.Manual
	m.Set(t)
	return clock.NewProcess(&m, p)
}

// TestSerialAbortUnderTO reproduces the §5.3 schedule: with unsynchronized
// clocks, T2 (clock 20) reads X and commits, then T1 (clock 10) writes X
// and must abort under timestamp ordering — an abort in a fully serial
// execution.
func TestSerialAbortUnderTO(t *testing.T) {
	var src clock.Logical
	db := core.New(policy.NewTO(clock.NewProcess(&src, 0)), core.Options{})
	ctx := context.Background()

	t2, _ := db.Begin(ctx)
	t2.SetClock(procClock(20, 2))
	if _, err := t2.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); err != nil {
		t.Fatalf("T2 must commit: %v", err)
	}

	t1, _ := db.Begin(ctx)
	t1.SetClock(procClock(10, 1))
	if err := t1.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("T1 must suffer the serial abort under TO, got %v", err)
	}
}

// TestNoSerialAbortUnderEpsilonClock runs the same §5.3 schedule under
// MVTL-ε-clock with ε covering the skew: no abort (Theorem 4).
func TestNoSerialAbortUnderEpsilonClock(t *testing.T) {
	var src clock.Logical
	db := core.New(policy.NewEpsilonClock(clock.NewProcess(&src, 0), 15), core.Options{})
	ctx := context.Background()

	t2, _ := db.Begin(ctx)
	t2.SetClock(procClock(20, 2))
	if _, err := t2.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); err != nil {
		t.Fatalf("T2 must commit: %v", err)
	}

	t1, _ := db.Begin(ctx)
	t1.SetClock(procClock(10, 1))
	if err := t1.Write(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); err != nil {
		t.Fatalf("ε-clock must avoid the serial abort (Theorem 4): %v", err)
	}
}

// TestSerialExecutionNeverAbortsEpsilonClock exercises Theorem 4 further:
// a long serial execution with clocks skewed within ±ε never aborts.
func TestSerialExecutionNeverAbortsEpsilonClock(t *testing.T) {
	const eps = 50
	var base clock.Manual
	base.Set(1000)
	var rec history.Recorder
	db := core.New(policy.NewEpsilonClock(clock.NewProcess(&base, 0), eps), core.Options{Recorder: &rec})
	ctx := context.Background()

	skews := []int64{-eps, eps, -eps / 2, eps / 2, 0, -eps, eps}
	for i := 0; i < 40; i++ {
		base.Advance(3) // real time moves a little between transactions
		skew := skews[i%len(skews)]
		tx, _ := db.Begin(ctx)
		tx.SetClock(clock.NewProcess(clock.NewSkewed(&base, skew), int32(i+1)))
		if _, err := tx.Read(ctx, "x"); err != nil {
			t.Fatalf("txn %d read: %v", i, err)
		}
		if err := tx.Write(ctx, "x", []byte{byte(i)}); err != nil {
			t.Fatalf("txn %d write: %v", i, err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("serial txn %d aborted under ε-clock: %v", i, err)
		}
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSerialExecutionAbortsUnderTOWithSkew shows the contrast: the same
// serial skewed workload does abort under timestamp ordering.
func TestSerialExecutionAbortsUnderTOWithSkew(t *testing.T) {
	var base clock.Manual
	base.Set(1000)
	db := core.New(policy.NewTO(clock.NewProcess(&base, 0)), core.Options{})
	ctx := context.Background()

	aborts := 0
	skews := []int64{50, -50}
	for i := 0; i < 10; i++ {
		base.Advance(3)
		tx, _ := db.Begin(ctx)
		tx.SetClock(clock.NewProcess(clock.NewSkewed(&base, skews[i%2]), int32(i+1)))
		if _, err := tx.Read(ctx, "x"); err != nil {
			aborts++
			continue
		}
		if err := tx.Write(ctx, "x", []byte{byte(i)}); err != nil {
			aborts++
			continue
		}
		if err := tx.Commit(ctx); err != nil {
			aborts++
		}
	}
	if aborts == 0 {
		t.Fatal("TO with skewed clocks should suffer serial aborts")
	}
}

// TestGhostAbortUnderTO reproduces the §5.5 schedule:
//
//	T3: R(X) C
//	T2: R(Y)      W(X) A        (aborted by T3's read)
//	T1:                W(Y) A   (ghost abort: conflicts only with aborted T2)
func TestGhostAbortUnderTO(t *testing.T) {
	var src clock.Logical
	db := core.New(policy.NewTO(clock.NewProcess(&src, 0)), core.Options{})
	ctx := context.Background()

	t3, _ := db.Begin(ctx)
	t3.SetClock(procClock(30, 3))
	t2, _ := db.Begin(ctx)
	t2.SetClock(procClock(20, 2))
	t1, _ := db.Begin(ctx)
	t1.SetClock(procClock(10, 1))

	if _, err := t3.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read(ctx, "y"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(ctx, "x", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("T2 must abort (T3 read X above its timestamp): %v", err)
	}
	// T2 has aborted; T1 only touches Y, conflicting only with the
	// aborted T2. Under TO the leftover read lock still kills T1.
	if err := t1.Write(ctx, "y", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("T1 must suffer the ghost abort under TO: %v", err)
	}
}

// TestNoGhostAbortUnderGhostbuster runs the same §5.5 schedule under
// MVTL-Ghostbuster: T2 still aborts, but its garbage collection removes
// its read locks, so T1 commits (Theorem 7).
func TestNoGhostAbortUnderGhostbuster(t *testing.T) {
	var src clock.Logical
	db := core.New(policy.NewGhostbuster(clock.NewProcess(&src, 0)), core.Options{})
	ctx := context.Background()

	t3, _ := db.Begin(ctx)
	t3.SetClock(procClock(30, 3))
	t2, _ := db.Begin(ctx)
	t2.SetClock(procClock(20, 2))
	t1, _ := db.Begin(ctx)
	t1.SetClock(procClock(10, 1))

	if _, err := t3.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read(ctx, "y"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(ctx, "x", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("T2 must still abort: %v", err)
	}
	if err := t1.Write(ctx, "y", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); err != nil {
		t.Fatalf("Ghostbuster must avoid the ghost abort (Theorem 7): %v", err)
	}
}

// TestPrefCommitsWhereTOAborts reproduces the Theorem 2(b) workload
// W1(Y) C1  R2(X) R3(Y) C3  W2(Y) C2 with t1 < t2 < t3 and
// max A(t2) < t1: MVTO+/MVTL-TO aborts T2, MVTL-Pref commits it at the
// alternative timestamp.
func TestPrefCommitsWhereTOAborts(t *testing.T) {
	ctx := context.Background()

	runSchedule := func(db *core.DB) error {
		t1, _ := db.Begin(ctx)
		t1.SetClock(procClock(100, 1))
		t2, _ := db.Begin(ctx)
		t2.SetClock(procClock(200, 2))
		t3, _ := db.Begin(ctx)
		t3.SetClock(procClock(300, 3))

		if err := t1.Write(ctx, "y", []byte("t1")); err != nil {
			return err
		}
		if err := t1.Commit(ctx); err != nil {
			return err
		}
		if _, err := t2.Read(ctx, "x"); err != nil {
			return err
		}
		if _, err := t3.Read(ctx, "y"); err != nil {
			return err
		}
		if err := t3.Commit(ctx); err != nil {
			return err
		}
		if err := t2.Write(ctx, "y", []byte("t2")); err != nil {
			return err
		}
		return t2.Commit(ctx)
	}

	var src1 clock.Logical
	toDB := core.New(policy.NewTO(clock.NewProcess(&src1, 0)), core.Options{})
	if err := runSchedule(toDB); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("TO must abort T2, got %v", err)
	}

	// A(t) = {t-150}: alternative below t1=100 for t2=200.
	var src2 clock.Logical
	prefDB := core.New(policy.NewPref(clock.NewProcess(&src2, 0), policy.OffsetAlternatives(-150)), core.Options{})
	if err := runSchedule(prefDB); err != nil {
		t.Fatalf("Pref must commit T2 at the alternative timestamp (Theorem 2b): %v", err)
	}
}

// TestPrefMatchesTOOnCleanWorkload checks Theorem 2(a) on a conflict-free
// workload: both policies commit everything.
func TestPrefMatchesTOOnCleanWorkload(t *testing.T) {
	ctx := context.Background()
	for name, mk := range map[string]func() *core.DB{
		"mvtl-to": func() *core.DB {
			var src clock.Logical
			return core.New(policy.NewTO(clock.NewProcess(&src, 0)), core.Options{})
		},
		"mvtl-pref": func() *core.DB {
			var src clock.Logical
			return core.New(policy.NewPref(clock.NewProcess(&src, 0), policy.OffsetAlternatives(-5)), core.Options{})
		},
	} {
		db := mk()
		base := int64(100)
		for i := 0; i < 20; i++ {
			tx, _ := db.Begin(ctx)
			tx.SetClock(procClock(base+int64(i*10), int32(i+1)))
			if _, err := tx.Read(ctx, "a"); err != nil {
				t.Fatalf("%s txn %d read: %v", name, i, err)
			}
			if err := tx.Write(ctx, "b", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatalf("%s txn %d: %v", name, i, err)
			}
		}
	}
}

// TestPrioCriticalSurvivesNormal checks Theorem 3: a critical
// transaction is never aborted by normal transactions, even when they
// read the keys it writes.
func TestPrioCriticalSurvivesNormal(t *testing.T) {
	var src clock.Logical
	var rec history.Recorder
	db := core.New(policy.NewPrio(clock.NewProcess(&src, 0)), core.Options{Recorder: &rec})
	ctx := context.Background()

	// A normal transaction reads x (leaving read locks up to its
	// timestamp) and stays active.
	n1, _ := db.Begin(ctx)
	if _, err := n1.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}

	// The critical transaction reads and writes x.
	crit, _ := db.Begin(ctx)
	crit.Priority = true
	if _, err := crit.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := crit.Write(ctx, "x", []byte("critical")); err != nil {
		t.Fatal(err)
	}
	if err := crit.Commit(ctx); err != nil {
		t.Fatalf("critical transaction aborted by normal activity (Theorem 3): %v", err)
	}

	// n1 can still try to commit; whether it succeeds is irrelevant to
	// the theorem.
	_ = n1.Commit(ctx)

	// More normal traffic after the critical commit must also not be
	// able to damage history.
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPrioNormalAbortedByCritical shows the converse direction is
// allowed: a normal transaction writing below the critical transaction's
// frozen reads aborts.
func TestPrioNormalAbortedByCritical(t *testing.T) {
	var src clock.Logical
	db := core.New(policy.NewPrio(clock.NewProcess(&src, 0)), core.Options{})
	ctx := context.Background()

	// A normal reader at timestamp 10 pushes the critical commit point
	// above 10 (its read locks make timestamps <= 10 unavailable for
	// the critical write).
	n0, _ := db.Begin(ctx)
	n0.SetClock(procClock(10, 1))
	if _, err := n0.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}

	crit, _ := db.Begin(ctx)
	crit.Priority = true
	if _, err := crit.Read(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := crit.Write(ctx, "x", []byte("critical")); err != nil {
		t.Fatal(err)
	}
	if err := crit.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// A normal writer below the critical transaction's frozen read
	// interval must abort.
	n1, _ := db.Begin(ctx)
	n1.SetClock(procClock(5, 2))
	if err := n1.Write(ctx, "x", []byte("normal")); err != nil {
		t.Fatal(err)
	}
	if err := n1.Commit(ctx); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("normal write below critical frozen reads must abort, got %v", err)
	}
}

// TestPessimisticSerializesConflictingWriters: with MVTL-Pessimistic two
// conflicting transactions execute one after the other (the second
// blocks until the first commits), and both commit.
func TestPessimisticSerializesConflictingWriters(t *testing.T) {
	db := core.New(policy.NewPessimistic(), core.Options{})
	ctx := context.Background()

	t1, _ := db.Begin(ctx)
	if err := t1.Write(ctx, "x", []byte("1")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		t2, _ := db.Begin(ctx)
		if err := t2.Write(ctx, "x", []byte("2")); err != nil {
			done <- err
			return
		}
		done <- t2.Commit(ctx)
	}()

	// t2 blocks on t1's write lock; commit t1 to release it.
	if err := t1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("t2 must commit after t1 releases: %v", err)
	}

	t3, _ := db.Begin(ctx)
	v, err := t3.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "2" {
		t.Fatalf("final value %q, want 2", v)
	}
}

// TestTILBasicCommit exercises MVTIL end to end on a tiny conflict-free
// workload for both commit choices.
func TestTILBasicCommit(t *testing.T) {
	for _, choice := range []policy.CommitChoice{policy.CommitEarly, policy.CommitLate} {
		var src clock.Logical
		db := core.New(policy.NewTIL(clock.NewProcess(&src, 0), 100, choice, true), core.Options{})
		ctx := context.Background()
		tx, _ := db.Begin(ctx)
		if _, err := tx.Read(ctx, "a"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(ctx, "b", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("%v: %v", choice, err)
		}
		tx2, _ := db.Begin(ctx)
		got, err := tx2.Read(ctx, "b")
		if err != nil || string(got) != "v" {
			t.Fatalf("%v: read %q %v", choice, got, err)
		}
	}
}
