package timestamp

import "testing"

func iv(lo, hi int64) Interval { return Span(New(lo, 0), New(hi, 0)) }

func TestIntervalEmpty(t *testing.T) {
	if iv(3, 2).IsEmpty() == false {
		t.Fatal("inverted interval must be empty")
	}
	if iv(2, 2).IsEmpty() {
		t.Fatal("point interval must not be empty")
	}
	if Full.IsEmpty() {
		t.Fatal("Full must not be empty")
	}
}

func TestIntervalContains(t *testing.T) {
	in := iv(2, 5)
	for _, tc := range []struct {
		t    Timestamp
		want bool
	}{
		{New(2, 0), true},
		{New(5, 0), true},
		{New(3, 7), true},
		{New(1, 9), false},
		{New(5, 1), false},
	} {
		if got := in.Contains(tc.t); got != tc.want {
			t.Errorf("%v.Contains(%v)=%v want %v", in, tc.t, got, tc.want)
		}
	}
}

func TestIntervalOverlaps(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{iv(1, 3), iv(3, 5), true},
		{iv(1, 3), iv(4, 5), false},
		{iv(1, 10), iv(4, 5), true},
		{iv(4, 5), iv(1, 10), true},
		{iv(5, 4), iv(1, 10), false}, // empty never overlaps
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v)=%v want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("Overlaps must be symmetric: %v %v", c.a, c.b)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	got := iv(1, 5).Intersect(iv(3, 9))
	if got != iv(3, 5) {
		t.Fatalf("Intersect = %v", got)
	}
	if !iv(1, 2).Intersect(iv(3, 4)).IsEmpty() {
		t.Fatal("disjoint intersect must be empty")
	}
}

func TestIntervalAdjacent(t *testing.T) {
	a := Span(New(1, 0), New(2, 5))
	b := Span(New(2, 5).Next(), New(3, 0))
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Fatal("expected adjacency")
	}
	c := Span(New(2, 7), New(3, 0))
	if a.Adjacent(c) {
		t.Fatal("gap means not adjacent")
	}
}

func TestIntervalSubtract(t *testing.T) {
	// carve the middle out
	below, above := iv(1, 10).Subtract(iv(4, 6))
	if below != Span(New(1, 0), New(4, 0).Prev()) {
		t.Errorf("part below = %v", below)
	}
	if above != Span(New(6, 0).Next(), New(10, 0)) {
		t.Errorf("part above = %v", above)
	}
	// cut one end off
	if below, above := iv(1, 10).Subtract(iv(1, 6)); !below.IsEmpty() || above != Span(New(6, 0).Next(), New(10, 0)) {
		t.Fatalf("prefix subtraction = %v, %v", below, above)
	}
	// subtract everything
	if below, above := iv(4, 6).Subtract(iv(1, 10)); !below.IsEmpty() || !above.IsEmpty() {
		t.Fatalf("total subtraction should be empty, got %v, %v", below, above)
	}
	// no overlap: the interval comes back whole, on the side it lies on
	if below, above := iv(1, 3).Subtract(iv(5, 9)); below != iv(1, 3) || !above.IsEmpty() {
		t.Fatalf("disjoint subtraction should be identity, got %v, %v", below, above)
	}
	if below, above := iv(5, 9).Subtract(iv(1, 3)); !below.IsEmpty() || above != iv(5, 9) {
		t.Fatalf("disjoint subtraction should be identity, got %v, %v", below, above)
	}
	if below, above := iv(5, 9).Subtract(Empty); below != iv(5, 9) || !above.IsEmpty() {
		t.Fatalf("subtracting nothing should be identity, got %v, %v", below, above)
	}
}

func TestIntervalMerge(t *testing.T) {
	if got := iv(1, 3).Merge(iv(2, 9)); got != iv(1, 9) {
		t.Fatalf("Merge = %v", got)
	}
	if got := iv(1, 3).Merge(Interval{Lo: New(9, 0), Hi: New(2, 0)}); got != iv(1, 3) {
		t.Fatalf("Merge with empty = %v", got)
	}
}

func TestIntervalContainsInterval(t *testing.T) {
	if !iv(1, 10).ContainsInterval(iv(3, 5)) {
		t.Fatal("containment expected")
	}
	if iv(3, 5).ContainsInterval(iv(1, 10)) {
		t.Fatal("containment unexpected")
	}
	if !iv(3, 5).ContainsInterval(iv(9, 2)) {
		t.Fatal("empty interval is contained everywhere")
	}
}

func TestIntervalString(t *testing.T) {
	if iv(2, 1).String() != "∅" {
		t.Errorf("empty String = %q", iv(2, 1).String())
	}
	if Point(New(1, 2)).String() != "[1.2]" {
		t.Errorf("point String = %q", Point(New(1, 2)).String())
	}
}
