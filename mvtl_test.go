package mvtl_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	mvtl "github.com/lpd-epfl/mvtl"
)

func TestOpenDefaults(t *testing.T) {
	s := mvtl.Open(mvtl.Options{})
	if s.Algorithm() != "mvtil-early" {
		t.Fatalf("default algorithm = %q", s.Algorithm())
	}
}

// TestOpenPanicsOnUnknownAlgorithm: a value that names no algorithm is a
// programming error Open reports, naming the value, rather than a store
// quietly running MVTIL.
func TestOpenPanicsOnUnknownAlgorithm(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "42") {
			t.Fatalf("Open(Algorithm 42) recovered %v, want a panic naming 42", r)
		}
	}()
	s := mvtl.Open(mvtl.Options{Algorithm: 42})
	t.Fatalf("Open(Algorithm 42) returned a store running %s", s.Algorithm())
}

func TestAllAlgorithmsRoundTrip(t *testing.T) {
	algos := []mvtl.Algorithm{
		mvtl.TILEarly, mvtl.TILLate, mvtl.TO, mvtl.Ghostbuster,
		mvtl.Pref, mvtl.Prio, mvtl.EpsilonClock, mvtl.Pessimistic,
	}
	ctx := context.Background()
	for _, a := range algos {
		t.Run(a.String(), func(t *testing.T) {
			s := mvtl.Open(mvtl.Options{Algorithm: a})
			tx, err := s.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Set(ctx, "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if tx.CommitTimestamp() == (mvtl.Timestamp{}) && a != mvtl.Pessimistic {
				t.Log("commit timestamp is zero-ish; acceptable only at epoch")
			}
			tx2, _ := s.Begin(ctx)
			v, err := tx2.Get(ctx, "k")
			if err != nil || string(v) != "v" {
				t.Fatalf("%q %v", v, err)
			}
		})
	}
}

// TestLocalDeadlockClassified: a local AB-BA upgrade deadlock under the
// pessimistic (2PL) algorithm must surface as both IsAborted and
// IsDeadlock, so callers can retry the victim immediately — the same
// classification the distributed client derives from the deadlock
// status code.
func TestLocalDeadlockClassified(t *testing.T) {
	s := mvtl.Open(mvtl.Options{Algorithm: mvtl.Pessimistic})
	ctx := context.Background()
	tx1, _ := s.Begin(ctx)
	tx2, _ := s.Begin(ctx)
	if err := tx1.Set(ctx, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Set(ctx, "b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := tx1.Set(ctx, "b", []byte("1"))
		if err == nil {
			err = tx1.Commit(ctx)
		}
		done <- err
	}()
	err2 := tx2.Set(ctx, "a", []byte("2"))
	err1 := <-done
	victim := err1
	if victim == nil {
		victim = err2
	}
	if victim == nil {
		t.Fatal("AB-BA produced no victim")
	}
	if !mvtl.IsAborted(victim) || !mvtl.IsDeadlock(victim) {
		t.Fatalf("victim error must classify as aborted deadlock: %v", victim)
	}
}

func TestUpdateAndView(t *testing.T) {
	s := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *mvtl.Txn) error {
		return tx.Set(ctx, "counter", []byte{1})
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := s.View(ctx, func(tx *mvtl.Txn) error {
		var err error
		got, err = tx.Get(ctx, "counter")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestViewForbidsWrites(t *testing.T) {
	s := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	err := s.View(ctx, func(tx *mvtl.Txn) error {
		return tx.Set(ctx, "x", nil)
	})
	if err == nil {
		t.Fatal("Set inside View must fail")
	}
}

func TestUpdateRollsBackOnError(t *testing.T) {
	s := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	wantErr := fmt.Errorf("boom")
	if err := s.Update(ctx, func(tx *mvtl.Txn) error {
		_ = tx.Set(ctx, "x", []byte("no"))
		return wantErr
	}); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	_ = s.View(ctx, func(tx *mvtl.Txn) error {
		if v, _ := tx.Get(ctx, "x"); v != nil {
			t.Fatalf("rolled-back write visible: %q", v)
		}
		return nil
	})
}

// TestUpdateRetriesOperationAborts checks that Update retries a
// contention abort where MVTIL raises it. Writes are buffered and
// write-locked at commit, so a write that conflicts surfaces there: fn's
// operations all succeed, and the abort comes from the Commit that
// Update runs for it.
func TestUpdateRetriesOperationAborts(t *testing.T) {
	s := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	attempts := 0
	var other *mvtl.Txn
	err := s.Update(ctx, func(tx *mvtl.Txn) error {
		attempts++
		if attempts > 1 {
			// The reader is done: its read lock stays frozen only up to
			// its commit, at or below the start of this attempt's
			// interval.
			if err := other.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			return tx.Set(ctx, "k", []byte("second"))
		}
		if err := tx.Set(ctx, "k", []byte("first")); err != nil {
			t.Fatalf("a buffered write: %v, want no conflict before commit", err)
		}
		// A second, later transaction read-locks "k" over this one's whole
		// interval, so its commit-time write lock has nothing left to lock
		// and the commit aborts.
		var err error
		if other, err = s.Begin(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("Update = %v after attempts=%d, want success on the second", err, attempts)
	}
	if err := s.View(ctx, func(tx *mvtl.Txn) error {
		if v, err := tx.Get(ctx, "k"); err != nil || string(v) != "second" {
			t.Fatalf("k = %q, %v; want the second attempt's write", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestIsAborted(t *testing.T) {
	if mvtl.IsAborted(nil) {
		t.Fatal("nil is not aborted")
	}
	if mvtl.IsAborted(fmt.Errorf("random")) {
		t.Fatal("random error is not aborted")
	}
}

func TestCriticalTransaction(t *testing.T) {
	s := mvtl.Open(mvtl.Options{Algorithm: mvtl.Prio})
	ctx := context.Background()
	// Normal reader holds locks.
	n, _ := s.Begin(ctx)
	if _, err := n.Get(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	crit, err := s.BeginCritical(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := crit.Set(ctx, "x", []byte("critical")); err != nil {
		t.Fatal(err)
	}
	if err := crit.Commit(ctx); err != nil {
		t.Fatalf("critical transaction aborted: %v", err)
	}
}

func TestStatsAndPurge(t *testing.T) {
	s := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	var lastCommit mvtl.Timestamp
	for i := 0; i < 10; i++ {
		tx, _ := s.Begin(ctx)
		_ = tx.Set(ctx, "k", []byte{byte(i)})
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		lastCommit = tx.CommitTimestamp()
	}
	st := s.Stats()
	if st.Versions < 10 {
		t.Fatalf("Versions = %d", st.Versions)
	}
	v, _ := s.Purge(lastCommit.Time+1, 0)
	if v == 0 {
		t.Fatal("purge removed nothing")
	}
	if got := s.Stats().Versions; got >= st.Versions {
		t.Fatalf("versions did not shrink: %d -> %d", st.Versions, got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	s := mvtl.Open(mvtl.Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				err := s.Update(ctx, func(tx *mvtl.Txn) error {
					return tx.Set(ctx, fmt.Sprintf("k%d", g%4), []byte{byte(i)})
				})
				if err != nil && !mvtl.IsAborted(err) {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
