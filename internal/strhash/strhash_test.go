package strhash

import "testing"

// TestPartitionIsStable pins the routing function every component
// shares: the same key always lands on the same partition, inside
// [0, n), and the keys spread over more than one.
func TestPartitionIsStable(t *testing.T) {
	const n = 3
	seen := map[int]string{}
	for _, k := range []string{"alpha", "beta", "gamma", "delta"} {
		first := Partition(k, n)
		if first < 0 || first >= n {
			t.Fatalf("Partition(%q, %d) = %d, out of range", k, n, first)
		}
		for i := 0; i < 10; i++ {
			if got := Partition(k, n); got != first {
				t.Fatalf("Partition(%q, %d) unstable: %d vs %d", k, n, first, got)
			}
		}
		seen[first] = k
	}
	if len(seen) < 2 {
		t.Fatalf("all four keys landed on partition %v", seen)
	}
}
