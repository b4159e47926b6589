package policy_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// hotKeyTxnAllocCeiling is what one attempt of a contended MVTIL
// transaction may allocate, averaged over commits and aborts. Measured
// 1.5: the Txn itself, the error of the attempts that abort, and the
// amortized growth of version chains and lock lists between purges. The
// sets a contended attempt shrinks, splits and intersects — its
// interval, every write grant and denial, the commit step's snapshots
// and candidates — live in the store's pooled scratch and cost nothing.
const hotKeyTxnAllocCeiling = 2.5

// TestHotKeyTxnAllocBudget is the benchmark's local-hot workload in
// miniature, made deterministic: MVTIL-early with Δ = 5000 on a manual
// clock advanced 50 per begin, two sessions taking turns call by call on
// this goroutine over 4 keys at 50 % writes, and a purge of lock and
// version state every 500 attempts. A third of the attempts abort and
// the hot keys' lock lists run to hundreds of records.
func TestHotKeyTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		delta      = 5000
		tick       = 50
		opsPerTxn  = 8
		purgeEvery = 500
		warmUp     = 2000
		measured   = 2000
	)
	var ticks clock.Manual
	ticks.Set(delta)
	db := core.New(policy.NewTIL(clock.NewProcess(&ticks, 1), delta, policy.CommitEarly, true), core.Options{})
	ctx := context.Background()
	keys := []string{"hot-0", "hot-1", "hot-2", "hot-3"}
	val := []byte("8 bytes.")
	rng := rand.New(rand.NewSource(1))

	// A session's step makes one call into the engine: begin, one read
	// or write, or commit. An operation that aborts ends the attempt.
	type session struct {
		tx  *core.Txn
		ops int
	}
	var sessions [2]session
	attempts, commits, purgeMark := 0, 0, int64(0)
	step := func(s *session) {
		var err error
		switch {
		case s.tx == nil:
			if attempts%purgeEvery == 0 {
				if purgeMark != 0 {
					db.PurgeBelow(timestamp.New(purgeMark, 0))
				}
				purgeMark = ticks.Now()
			}
			attempts++
			ticks.Advance(tick)
			s.tx, err = db.Begin(ctx)
			s.ops = 0
			if err != nil {
				t.Fatal(err)
			}
			return
		case s.ops == opsPerTxn:
			if err = s.tx.Commit(ctx); err == nil {
				commits++
			}
			s.tx = nil
		default:
			s.ops++
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(2) == 0 {
				err = s.tx.Write(ctx, k, val)
			} else {
				_, err = s.tx.Read(ctx, k)
			}
			if err != nil {
				s.tx = nil
			}
		}
		if err != nil && !errors.Is(err, kv.ErrAborted) {
			t.Fatal(err)
		}
	}
	run := func(n int) {
		for target := attempts + n; attempts < target || sessions[0].tx != nil || sessions[1].tx != nil; {
			for i := range sessions {
				if s := &sessions[i]; s.tx != nil || attempts < target {
					step(s)
				}
			}
		}
	}

	run(warmUp)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startAttempts, startCommits := attempts, commits
	run(measured)
	runtime.ReadMemStats(&after)

	n := attempts - startAttempts
	perAttempt := float64(after.Mallocs-before.Mallocs) / float64(n)
	rate := float64(commits-startCommits) / float64(n)
	t.Logf("%d attempts, commit rate %.2f: %.2f allocs per attempt (ceiling %v)", n, rate, perAttempt, hotKeyTxnAllocCeiling)
	if rate < 0.3 || rate > 0.9 {
		t.Errorf("commit rate %.2f: the workload is meant to be contended, not starved or idle", rate)
	}
	if perAttempt > hotKeyTxnAllocCeiling {
		t.Errorf("%.2f allocs per attempt, ceiling %v", perAttempt, hotKeyTxnAllocCeiling)
	}
}
