package timestamp

import "fmt"

// Interval is a closed interval [Lo, Hi] of timestamps. An interval with
// Lo > Hi is empty. Intervals are the unit of lock acquisition in MVTL:
// reads lock contiguous intervals immediately following the version they
// return (§4.3), and interval compression keeps the lock state small (§6).
type Interval struct {
	Lo, Hi Timestamp
}

// Span returns the interval [lo, hi].
func Span(lo, hi Timestamp) Interval { return Interval{Lo: lo, Hi: hi} }

// Point returns the degenerate interval [t, t].
func Point(t Timestamp) Interval { return Interval{Lo: t, Hi: t} }

// Full is the interval covering every timestamp.
var Full = Interval{Lo: Zero, Hi: Infinity}

// Empty is a canonical empty interval. Note that the zero value of
// Interval is NOT empty — it is the point [Zero, Zero].
var Empty = Interval{Lo: Timestamp{Proc: 1}, Hi: Timestamp{}}

// IsEmpty reports whether the interval contains no timestamps.
func (iv Interval) IsEmpty() bool { return iv.Lo.After(iv.Hi) }

// Contains reports whether t lies within the interval.
func (iv Interval) Contains(t Timestamp) bool {
	return iv.Lo.AtOrBefore(t) && t.AtOrBefore(iv.Hi)
}

// ContainsInterval reports whether o lies entirely within iv. The empty
// interval is contained in every interval.
func (iv Interval) ContainsInterval(o Interval) bool {
	if o.IsEmpty() {
		return true
	}
	return iv.Lo.AtOrBefore(o.Lo) && o.Hi.AtOrBefore(iv.Hi)
}

// Overlaps reports whether the two intervals share at least one timestamp.
func (iv Interval) Overlaps(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.Lo.AtOrBefore(o.Hi) && o.Lo.AtOrBefore(iv.Hi)
}

// Intersect returns the overlap between iv and o (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Lo: Max(iv.Lo, o.Lo), Hi: Min(iv.Hi, o.Hi)}
}

// Adjacent reports whether o starts exactly where iv ends (or vice versa)
// so that their union is a single contiguous interval.
func (iv Interval) Adjacent(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.Hi.Next() == o.Lo || o.Hi.Next() == iv.Lo
}

// Merge returns the smallest interval covering both iv and o. It is only
// meaningful when the intervals overlap or are adjacent.
func (iv Interval) Merge(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{Lo: Min(iv.Lo, o.Lo), Hi: Max(iv.Hi, o.Hi)}
}

// Subtract returns the parts of iv not covered by o: the part below o and
// the part above it. Either may be empty — both are when o covers iv, and
// when o misses iv entirely the whole of iv comes back as one of them.
func (iv Interval) Subtract(o Interval) (below, above Interval) {
	if iv.IsEmpty() {
		return Empty, Empty
	}
	if o.IsEmpty() {
		return iv, Empty
	}
	below, above = Empty, Empty
	if iv.Lo.Before(o.Lo) {
		below = Interval{Lo: iv.Lo, Hi: Min(iv.Hi, o.Lo.Prev())}
	}
	if o.Hi.Before(iv.Hi) {
		above = Interval{Lo: Max(iv.Lo, o.Hi.Next()), Hi: iv.Hi}
	}
	return below, above
}

// String renders the interval as "[lo,hi]", or "∅" when empty.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("[%v]", iv.Lo)
	}
	return fmt.Sprintf("[%v,%v]", iv.Lo, iv.Hi)
}
