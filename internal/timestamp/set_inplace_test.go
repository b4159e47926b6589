package timestamp

import (
	"math/rand"
	"testing"
)

// randSetPair returns a random normalized set together with the raw
// intervals it was built from.
func randSet(r *rand.Rand, maxIvs int) Set {
	var s Set
	for i, n := 0, r.Intn(maxIvs+1); i < n; i++ {
		lo := int64(r.Intn(200))
		s.AddInPlace(iv(lo, lo+int64(r.Intn(20))))
	}
	return s
}

func TestAddInPlaceMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		s := randSet(r, 5)
		lo := int64(r.Intn(220))
		x := iv(lo, lo+int64(r.Intn(25)))
		want := s.Add(x)
		got := s
		got.AddInPlace(x)
		if !got.Equal(want) {
			t.Fatalf("AddInPlace(%v, %v) = %v, want %v", s, x, got, want)
		}
	}
}

func TestIntersectIntoMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		a, b := randSet(r, 5), randSet(r, 5)
		want := a.Intersect(b)
		got := a
		got.IntersectInto(b)
		if !got.Equal(want) {
			t.Fatalf("IntersectInto(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// sharesStorage reports whether two sets could write into one backing
// slice: the aliasing the three-operand operations rule out.
func sharesStorage(a, b *Set) bool {
	return cap(a.ivs) > 0 && cap(b.ivs) > 0 && &a.ivs[:1][0] == &b.ivs[:1][0]
}

// TestThreeOperandOpsMatchPersistentTwins holds every operation that
// rebuilds a destination over its retained storage to the persistent
// method of the same algebra, over random sets of 0–40 intervals and a
// destination left dirty and spilled by the previous trial — and checks
// that the operands come out as they went in.
func TestThreeOperandOpsMatchPersistentTwins(t *testing.T) {
	ops := []struct {
		name  string
		into  func(dst *Set, a, b Set, x Interval)
		fresh func(a, b Set, x Interval) Set
	}{
		{"union", func(dst *Set, a, b Set, _ Interval) { dst.SetUnion(a, b) },
			func(a, b Set, _ Interval) Set { return a.Union(b) }},
		{"intersect", func(dst *Set, a, b Set, _ Interval) { dst.SetIntersect(a, b) },
			func(a, b Set, _ Interval) Set { return a.Intersect(b) }},
		{"subtract", func(dst *Set, a, b Set, _ Interval) { dst.SetSubtract(a, b) },
			func(a, b Set, _ Interval) Set { return a.Subtract(b) }},
		{"intersect-interval", func(dst *Set, a, _ Set, x Interval) { dst.SetIntersectInterval(a, x) },
			func(a, _ Set, x Interval) Set { return a.IntersectInterval(x) }},
	}
	for seed, op := range ops {
		op := op
		r := rand.New(rand.NewSource(int64(10 + seed)))
		t.Run(op.name, func(t *testing.T) {
			dst := wideRandSet(r, 40) // dirty from the start
			for trial := 0; trial < 2000; trial++ {
				a, b := wideRandSet(r, 40), wideRandSet(r, 40)
				lo := int64(r.Intn(900))
				x := iv(lo, lo+int64(r.Intn(400))-50) // sometimes empty
				if sharesStorage(&dst, &a) || sharesStorage(&dst, &b) {
					t.Fatal("the destination shares storage with an operand")
				}
				keepA, keepB := a.Intervals(), b.Intervals()
				want := op.fresh(a, b, x)
				op.into(&dst, a, b, x)
				if !dst.Equal(want) {
					t.Fatalf("trial %d: a=%v b=%v x=%v: got %v, want %v", trial, a, b, x, dst, want)
				}
				assertNormalized(t, dst)
				if !a.Equal(NewSet(keepA...)) || !b.Equal(NewSet(keepB...)) {
					t.Fatalf("trial %d: an operand changed: a=%v b=%v", trial, a, b)
				}
			}
		})
	}
}

// wideRandSet returns a random normalized set of up to maxIvs intervals
// over a domain wide enough that most of them stay apart.
func wideRandSet(r *rand.Rand, maxIvs int) Set {
	var s Set
	for i, n := 0, r.Intn(maxIvs+1); i < n; i++ {
		lo := int64(r.Intn(1000))
		s.AddInPlace(iv(lo, lo+int64(r.Intn(12))))
	}
	return s
}

// TestThreeOperandOpsReuseStorage checks what the family is for: a
// destination that has held a large result rebuilds without allocating.
func TestThreeOperandOpsReuseStorage(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	a, b := wideRandSet(r, 40), wideRandSet(r, 40)
	var dst Set
	dst.SetUnion(a, b) // grows dst to the largest result below
	allocs := testing.AllocsPerRun(100, func() {
		dst.SetIntersect(a, b)
		dst.SetSubtract(a, b)
		dst.SetIntersectInterval(a, iv(100, 900))
		dst.SetUnion(a, b)
	})
	if allocs != 0 {
		t.Fatalf("rebuilding over retained storage allocated %.1f times per run", allocs)
	}
}

// TestInPlaceOpsPreserveNormalization checks the Set invariant — sorted,
// disjoint, non-adjacent, non-empty intervals — after chains of in-place
// mutations.
func TestInPlaceOpsPreserveNormalization(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s Set
	for trial := 0; trial < 5000; trial++ {
		lo := int64(r.Intn(300))
		x := iv(lo, lo+int64(r.Intn(30)))
		switch r.Intn(4) {
		case 0:
			s.AddInPlace(x)
		case 1:
			s = s.Union(NewSet(x))
		case 2:
			s.IntersectInto(NewSet(x, iv(lo+40, lo+80)))
		case 3:
			s = s.Subtract(NewSet(iv(lo, lo+3)))
		}
		assertNormalized(t, s)
	}
}

func assertNormalized(t *testing.T, s Set) {
	t.Helper()
	for i := 0; i < s.NumIntervals(); i++ {
		cur := s.At(i)
		if cur.IsEmpty() {
			t.Fatalf("set %v holds empty interval at %d", s, i)
		}
		if i > 0 {
			prev := s.At(i - 1)
			if !prev.Hi.Next().Before(cur.Lo) {
				t.Fatalf("set %v not normalized at %d: %v then %v", s, i, prev, cur)
			}
		}
	}
}

// TestInlineSpillBoundary exercises the transition from inline to heap
// storage in both directions.
func TestInlineSpillBoundary(t *testing.T) {
	var s Set
	for i := int64(0); i < 6; i++ {
		s.AddInPlace(iv(i*10, i*10+4))
		if got := s.NumIntervals(); got != int(i)+1 {
			t.Fatalf("after %d adds: %d intervals (%v)", i+1, got, s)
		}
	}
	// Shrink back under the inline capacity; the set stays correct.
	s.IntersectInto(NewSet(iv(0, 14)))
	if want := NewSet(iv(0, 4), iv(10, 14)); !s.Equal(want) {
		t.Fatalf("shrunk set = %v, want %v", s, want)
	}
	s.SetSubtract(NewSet(iv(0, 4), iv(10, 14)), NewSet(iv(10, 14)))
	if want := NewSet(iv(0, 4)); !s.Equal(want) {
		t.Fatalf("shrunk set = %v, want %v", s, want)
	}
}

// TestAppendIntervalsReusesBuffer checks the copy-free iteration helper.
func TestAppendIntervalsReusesBuffer(t *testing.T) {
	s := NewSet(iv(1, 2), iv(9, 12))
	buf := make([]Interval, 0, 8)
	out := s.AppendIntervals(buf)
	if len(out) != 2 || out[0] != iv(1, 2) || out[1] != iv(9, 12) {
		t.Fatalf("AppendIntervals = %v", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendIntervals did not reuse the provided buffer")
	}
}

// TestResetKeepsCapacity checks that a Reset set rebuilds into its old
// spilled storage without allocating, and still behaves as empty.
func TestResetKeepsCapacity(t *testing.T) {
	var s Set
	for i := int64(0); i < 6; i++ {
		s.AddInPlace(iv(i*10, i*10+4))
	}
	s.Reset()
	if !s.IsEmpty() || s.NumIntervals() != 0 {
		t.Fatalf("after Reset: %v", s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for i := int64(0); i < 6; i++ {
			s.AddInPlace(iv(i*10, i*10+4))
		}
	})
	if allocs != 0 {
		t.Fatalf("rebuild after Reset allocated %.1f times per run", allocs)
	}
	want := NewSet(iv(0, 4), iv(10, 14), iv(20, 24), iv(30, 34), iv(40, 44), iv(50, 54))
	if !s.Equal(want) {
		t.Fatalf("rebuilt set = %v, want %v", s, want)
	}
}

// TestResetOnInlineAndZeroSets checks Reset on sets that never spilled.
func TestResetOnInlineAndZeroSets(t *testing.T) {
	var zero Set
	zero.Reset()
	if !zero.IsEmpty() {
		t.Fatalf("zero set after Reset: %v", zero)
	}
	s := NewSet(iv(1, 2))
	s.Reset()
	if !s.IsEmpty() {
		t.Fatalf("inline set after Reset: %v", s)
	}
	s.AddInPlace(iv(7, 9))
	if want := NewSet(iv(7, 9)); !s.Equal(want) {
		t.Fatalf("rebuilt inline set = %v, want %v", s, want)
	}
}
