package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	mvtl "github.com/lpd-epfl/mvtl"
)

// TestFrozenHistoryPlateau runs the local-uniform workload in miniature
// with nobody purging: 2 000 preloaded keys, then 20 000 transactions of
// 8 operations at 10 % writes. What the lock tables keep frozen must grow
// with versions, not with reads: one record per installed version — its
// write point and the anonymous read range frozen just above it, however
// many transactions read it.
func TestFrozenHistoryPlateau(t *testing.T) {
	const keys, txns, ops, writePct, preloadBatch = 2000, 20_000, 8, 10, 100
	store := mvtl.Open(mvtl.Options{Algorithm: mvtl.TILEarly})
	ctx := context.Background()
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%04d", i)
	}
	value := []byte("v")
	for lo := 0; lo < keys; lo += preloadBatch {
		if err := store.Update(ctx, func(tx *mvtl.Txn) error {
			for _, k := range names[lo : lo+preloadBatch] {
				if err := tx.Set(ctx, k, value); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	commits := 0
	for range txns {
		tx, err := store.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ops && err == nil; i++ {
			k := names[rng.Intn(keys)]
			if rng.Intn(100) < writePct {
				err = tx.Set(ctx, k, value)
			} else {
				_, err = tx.Get(ctx, k)
			}
		}
		if err == nil {
			err = tx.Commit(ctx)
		}
		switch {
		case err == nil:
			commits++
		case !mvtl.IsAborted(err):
			t.Fatal(err)
		}
	}

	st := store.Stats()
	t.Logf("%d of %d committed: %d versions, %d frozen lock records of %d", commits, txns, st.Versions, st.FrozenLockEntries, st.LockEntries)
	if st.FrozenLockEntries > st.Versions {
		t.Errorf("%d frozen lock records over %d versions, want at most one per version", st.FrozenLockEntries, st.Versions)
	}
	if st.LockEntries != st.FrozenLockEntries {
		t.Errorf("%d unfrozen lock records left with no transaction running", st.LockEntries-st.FrozenLockEntries)
	}
}
