package commitment

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

func TestFirstProposalWins(t *testing.T) {
	r := NewRegistry()
	d1 := r.Decide(1, Decision{Kind: wire.DecideCommit, TS: timestamp.New(5, 1)})
	if d1.Kind != wire.DecideCommit {
		t.Fatalf("d1 = %+v", d1)
	}
	d2 := r.Decide(1, Decision{Kind: wire.DecideAbort})
	if d2.Kind != wire.DecideCommit || d2.TS != timestamp.New(5, 1) {
		t.Fatalf("later proposal must not override: %+v", d2)
	}
}

// TestAgreementUnderContention: many goroutines race proposals; all must
// observe the same decision (the Agreement property of §H.2).
func TestAgreementUnderContention(t *testing.T) {
	r := NewRegistry()
	for round := uint64(0); round < 50; round++ {
		const racers = 16
		out := make([]Decision, racers)
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				kind := wire.DecideCommit
				if i%2 == 0 {
					kind = wire.DecideAbort
				}
				out[i] = r.Decide(round, Decision{Kind: kind, TS: timestamp.New(int64(i), 0)})
			}(i)
		}
		wg.Wait()
		for i := 1; i < racers; i++ {
			if out[i] != out[0] {
				t.Fatalf("round %d: decisions diverge: %+v vs %+v", round, out[0], out[i])
			}
		}
	}
}

// TestTransactionsIndependent: one transaction's decision does not bind
// another's.
func TestTransactionsIndependent(t *testing.T) {
	r := NewRegistry()
	commit := Decision{Kind: wire.DecideCommit, TS: timestamp.New(7, 0)}
	abort := Decision{Kind: wire.DecideAbort}
	if d := r.Decide(1, commit); d != commit {
		t.Fatalf("txn 1 decided %+v, want %+v", d, commit)
	}
	if d := r.Decide(2, abort); d != abort {
		t.Fatalf("txn 2 decided %+v, want %+v", d, abort)
	}
	if d := r.Decide(1, abort); d != commit {
		t.Fatalf("txn 1 re-decided %+v, want %+v", d, commit)
	}
}

// TestDecisionKeptExactly: the registry keeps a decision in a flattened
// form, and hands back a commit and an abort exactly as proposed — an
// abort proposal's timestamp included — at the extremes of Time and Proc.
func TestDecisionKeptExactly(t *testing.T) {
	if n := unsafe.Sizeof(decided{}); n != 16 {
		t.Errorf("a kept decision is %d bytes, want 16", n)
	}
	r := NewRegistry()
	txn := uint64(0)
	for _, kind := range []wire.DecisionKind{wire.DecideCommit, wire.DecideAbort} {
		other := Decision{Kind: wire.DecideAbort}
		if kind == wire.DecideAbort {
			other = Decision{Kind: wire.DecideCommit, TS: timestamp.New(5, 1)}
		}
		for _, ts := range []timestamp.Timestamp{
			timestamp.Zero,
			timestamp.Infinity,
			timestamp.New(math.MinInt64, math.MinInt32),
			timestamp.New(math.MaxInt64, math.MinInt32),
			timestamp.New(math.MinInt64, math.MaxInt32),
			timestamp.New(-1, -1),
			timestamp.New(1<<40+7, 3),
		} {
			txn++
			want := Decision{Kind: kind, TS: ts}
			if d := r.Decide(txn, want); d != want {
				t.Errorf("txn %d: first proposal %+v came back as %+v", txn, want, d)
			}
			if d := r.Decide(txn, other); d != want {
				t.Errorf("txn %d: decided %+v, kept as %+v", txn, want, d)
			}
		}
	}
}
