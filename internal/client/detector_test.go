package client

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

func edge(w, h uint64, key string) wire.WaitEdge {
	return wire.WaitEdge{Waiter: w, Holder: h, Key: key}
}

func TestFindVictimsNoCycle(t *testing.T) {
	edges := []wire.WaitEdge{edge(1, 2, "a"), edge(2, 3, "b"), edge(4, 3, "c")}
	if v := findVictims(edges); len(v) != 0 {
		t.Fatalf("acyclic graph produced victims: %+v", v)
	}
	if v := findVictims(nil); len(v) != 0 {
		t.Fatalf("empty graph produced victims: %+v", v)
	}
}

func TestFindVictimsTwoCycle(t *testing.T) {
	// The classic cross-server AB-BA: 7 waits on 9 (key b), 9 waits on
	// 7 (key a). Victim is the lower id, blocked on b.
	edges := []wire.WaitEdge{edge(7, 9, "b"), edge(9, 7, "a")}
	v := findVictims(edges)
	if len(v) != 1 || v[0].txn != 7 || v[0].key != "b" {
		t.Fatalf("victims = %+v", v)
	}
}

func TestFindVictimsTransitive(t *testing.T) {
	edges := []wire.WaitEdge{edge(5, 6, "x"), edge(6, 8, "y"), edge(8, 5, "z")}
	v := findVictims(edges)
	if len(v) != 1 || v[0].txn != 5 || v[0].key != "x" {
		t.Fatalf("victims = %+v", v)
	}
}

func TestFindVictimsDisjointCycles(t *testing.T) {
	edges := []wire.WaitEdge{
		edge(1, 2, "a"), edge(2, 1, "b"),
		edge(10, 11, "c"), edge(11, 10, "d"),
		edge(20, 21, "e"), // acyclic appendix
	}
	v := findVictims(edges)
	if len(v) != 2 || v[0].txn != 1 || v[1].txn != 10 {
		t.Fatalf("victims = %+v", v)
	}
}

func TestFindVictimsPathIntoCycle(t *testing.T) {
	// 1 waits on the cycle {2,3} without being in it: aborting the
	// cycle's victim (2) frees 1, so 1 must not be shot.
	edges := []wire.WaitEdge{edge(1, 2, "a"), edge(2, 3, "b"), edge(3, 2, "c")}
	v := findVictims(edges)
	if len(v) != 1 || v[0].txn != 2 || v[0].key != "b" {
		t.Fatalf("victims = %+v", v)
	}
}

// TestFindVictimsDeterministic: the same edge set, shuffled, always
// yields the same victims — the property that lets several coordinators
// fire at the same transaction instead of one each.
func TestFindVictimsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	base := []wire.WaitEdge{
		edge(3, 8, "a"), edge(8, 12, "b"), edge(12, 3, "c"),
		edge(40, 41, "d"), edge(41, 40, "e"),
		edge(100, 3, "f"),
	}
	want := fmt.Sprintf("%+v", findVictims(base))
	for i := 0; i < 50; i++ {
		shuffled := append([]wire.WaitEdge(nil), base...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := fmt.Sprintf("%+v", findVictims(shuffled)); got != want {
			t.Fatalf("iteration %d: %s != %s", i, got, want)
		}
	}
}

// BenchmarkFindVictims measures one detector scan over a graph with
// many waiting transactions and a single cycle buried in it — the
// common contended shape (long chains, rare cycles).
func BenchmarkFindVictims(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("waiters%d", n), func(b *testing.B) {
			edges := make([]wire.WaitEdge, 0, n+2)
			for i := 0; i < n; i++ {
				edges = append(edges, edge(uint64(1000+i), uint64(1000+i+1), "k"))
			}
			edges = append(edges, edge(7, 9, "b"), edge(9, 7, "a"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := findVictims(edges); len(v) != 1 {
					b.Fatalf("victims = %+v", v)
				}
			}
		})
	}
}
