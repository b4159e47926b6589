package timestamp

import (
	"sort"
	"strings"
)

// smallSetIvs is the number of intervals a Set can hold inline, without
// touching the heap. Hot-path sets — a transaction's shrinking candidate
// interval, the owned portion of a lock table, a conflict set — almost
// always hold one or two intervals (one range, or a range split once
// around a frozen point), so two covers the common case.
const smallSetIvs = 2

// spilledSet marks a Set whose intervals live in the heap slice instead
// of the inline array.
const spilledSet = -1

// Set is a set of timestamps represented as a normalized sequence of
// disjoint, non-adjacent, non-empty intervals sorted by Lo. The zero value
// is the empty set.
//
// Sets represent the candidate commit timestamps a transaction still has
// available: the generic commit step (§4.3, Alg. 1 line 13) intersects the
// locked timestamps across all keys in the read and write sets, and
// policies such as ε-clock shrink their set as lock acquisition partially
// fails.
//
// Up to smallSetIvs intervals are stored inline in the struct, so small
// sets never allocate and copying a small set by value copies its storage.
// Larger sets spill to a heap slice.
//
// Three families of methods are provided; they differ in what they cost
// once a set has outgrown its inline storage.
//
// Value-receiver methods (Add, Union, Intersect, Subtract, ...) are
// persistent: they leave the receiver untouched and build a new set from
// nothing — free while the result fits inline, one heap slice (grown by
// doubling) when it spills.
//
// AddInPlace and IntersectInto update the receiver. AddInPlace costs
// nothing when it appends to or extends the top of the set within its
// capacity, and rebuilds like Add otherwise. IntersectInto drops the
// receiver's spilled storage before rebuilding (the storage may be shared
// with value copies), so past two intervals it allocates like Intersect.
//
// The three-operand methods (SetUnion, SetIntersect, SetSubtract,
// SetIntersectInterval) and Reset rebuild the receiver over whatever
// spilled storage it retains and allocate only to grow it: a destination
// that is kept and reused stops allocating once it has held its largest
// result. They are the family for a hot path. The destination must be
// uniquely owned — value copies of a spilled set share its backing slice,
// which the rebuild overwrites — and, for the same reason, must not share
// storage with an operand.
type Set struct {
	// n is the number of intervals in inline, or spilledSet when the
	// intervals live in ivs.
	n      int8
	inline [smallSetIvs]Interval
	ivs    []Interval
}

// view returns the set's intervals without copying. The result aliases
// the receiver's storage and must be treated as read-only.
func (s *Set) view() []Interval {
	if s.n >= 0 {
		return s.inline[:s.n]
	}
	return s.ivs
}

// appendIv appends iv to the set. The caller guarantees normalization:
// iv is non-empty and starts after the current last interval with a gap.
func (s *Set) appendIv(iv Interval) {
	if s.n >= 0 {
		if int(s.n) < smallSetIvs {
			s.inline[s.n] = iv
			s.n++
			return
		}
		if cap(s.ivs) >= smallSetIvs {
			// A Reset left reusable spilled capacity behind (normal
			// operations always enter the spill with ivs == nil).
			s.ivs = s.ivs[:smallSetIvs]
		} else {
			s.ivs = make([]Interval, s.n, smallSetIvs*2)
		}
		copy(s.ivs, s.inline[:s.n])
		s.n = spilledSet
	}
	s.ivs = append(s.ivs, iv)
}

// setLast replaces the last interval of a non-empty set.
func (s *Set) setLast(iv Interval) {
	if s.n >= 0 {
		s.inline[s.n-1] = iv
		return
	}
	s.ivs[len(s.ivs)-1] = iv
}

// Reset empties the set but keeps any spilled storage for reuse, so a
// scratch set that is repeatedly rebuilt (for example the Owned
// snapshots of the commit step) stops allocating once it has grown. The
// receiver must be uniquely owned: value copies of a spilled set share
// its backing slice, and a rebuild after Reset overwrites it.
func (s *Set) Reset() {
	s.n = 0
	s.ivs = s.ivs[:0]
}

// NewSet builds a set from the given intervals (which may overlap or be
// unsorted; empty intervals are ignored).
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s.AddInPlace(iv)
	}
	return s
}

// IsEmpty reports whether the set contains no timestamps.
func (s Set) IsEmpty() bool {
	return s.n == 0 || (s.n == spilledSet && len(s.ivs) == 0)
}

// Intervals returns a copy of the normalized intervals making up the set.
func (s Set) Intervals() []Interval {
	v := s.view()
	out := make([]Interval, len(v))
	copy(out, v)
	return out
}

// NumIntervals returns the number of maximal intervals in the set; it is a
// measure of lock-state fragmentation (§6).
func (s Set) NumIntervals() int { return len(s.view()) }

// At returns the i-th maximal interval of the set (0-based, sorted by
// Lo). Together with NumIntervals it allows iterating a set without the
// copy Intervals makes.
func (s Set) At(i int) Interval { return s.view()[i] }

// AppendIntervals appends the set's intervals to dst and returns the
// extended slice, letting callers reuse a scratch buffer.
func (s Set) AppendIntervals(dst []Interval) []Interval {
	return append(dst, s.view()...)
}

// Contains reports whether t is in the set.
func (s Set) Contains(t Timestamp) bool {
	v := s.view()
	i := sort.Search(len(v), func(i int) bool { return v[i].Hi.AtOrAfter(t) })
	return i < len(v) && v[i].Contains(t)
}

// ContainsInterval reports whether the entire interval iv is in the set.
func (s Set) ContainsInterval(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	v := s.view()
	i := sort.Search(len(v), func(i int) bool { return v[i].Hi.AtOrAfter(iv.Lo) })
	return i < len(v) && v[i].ContainsInterval(iv)
}

// Min returns the smallest timestamp in the set. The second result is
// false when the set is empty.
func (s Set) Min() (Timestamp, bool) {
	v := s.view()
	if len(v) == 0 {
		return Timestamp{}, false
	}
	return v[0].Lo, true
}

// Max returns the largest timestamp in the set. The second result is
// false when the set is empty.
func (s Set) Max() (Timestamp, bool) {
	v := s.view()
	if len(v) == 0 {
		return Timestamp{}, false
	}
	return v[len(v)-1].Hi, true
}

// AddInPlace extends the set with interval iv, coalescing overlapping and
// adjacent intervals. Appending at or merging into the top of the set —
// the common case when a set is built in ascending order — is
// allocation-free while the set fits inline.
func (s *Set) AddInPlace(iv Interval) {
	if iv.IsEmpty() {
		return
	}
	v := s.view()
	if len(v) == 0 {
		s.appendIv(iv)
		return
	}
	last := v[len(v)-1]
	if iv.Lo.After(last.Hi.Next()) {
		s.appendIv(iv)
		return
	}
	if iv.Lo.AtOrAfter(last.Lo) {
		// iv touches only the last interval: every earlier interval ends
		// with a gap before last.Lo <= iv.Lo.
		s.setLast(last.Merge(iv))
		return
	}
	// General insert somewhere in the middle: rebuild.
	*s = s.Add(iv)
}

// Add returns the set extended with interval iv, coalescing overlapping
// and adjacent intervals. The receiver is not modified.
func (s Set) Add(iv Interval) Set {
	var out Set
	if iv.IsEmpty() {
		out.copyOf(s.view())
		return out
	}
	one := [1]Interval{iv}
	unionAppend(&out, s.view(), one[:])
	return out
}

// copyOf fills the (empty) set with a copy of the given normalized
// intervals.
func (s *Set) copyOf(v []Interval) {
	if len(v) <= smallSetIvs {
		s.n = int8(copy(s.inline[:], v))
		return
	}
	s.n = spilledSet
	s.ivs = append([]Interval(nil), v...)
}

// unionAppend appends the union of the normalized sequences a and b to
// dst.
func unionAppend(dst *Set, a, b []Interval) {
	i, j := 0, 0
	var cur Interval
	have := false
	for i < len(a) || j < len(b) {
		var next Interval
		if j >= len(b) || (i < len(a) && a[i].Lo.AtOrBefore(b[j].Lo)) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		switch {
		case !have:
			cur, have = next, true
		case next.Lo.AtOrBefore(cur.Hi.Next()):
			if next.Hi.After(cur.Hi) {
				cur.Hi = next.Hi
			}
		default:
			dst.appendIv(cur)
			cur = next
		}
	}
	if have {
		dst.appendIv(cur)
	}
}

// Union returns the union of s and o. The receiver is not modified.
func (s Set) Union(o Set) Set {
	var out Set
	unionAppend(&out, s.view(), o.view())
	return out
}

// SetUnion rebuilds s as a ∪ b over the storage s retains. s must not
// share storage with a or b.
func (s *Set) SetUnion(a, b Set) {
	s.Reset()
	unionAppend(s, a.view(), b.view())
}

// intersectAppend appends the intersection of the normalized sequences a
// and b to dst.
func intersectAppend(dst *Set, a, b []Interval) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if x := a[i].Intersect(b[j]); !x.IsEmpty() {
			dst.appendIv(x)
		}
		if a[i].Hi.Before(b[j].Hi) {
			i++
		} else {
			j++
		}
	}
}

// IntersectInterval returns the subset of s inside iv.
func (s Set) IntersectInterval(iv Interval) Set {
	var out Set
	out.SetIntersectInterval(s, iv)
	return out
}

// Intersect returns the intersection of s and o. The receiver is not
// modified.
func (s Set) Intersect(o Set) Set {
	var out Set
	intersectAppend(&out, s.view(), o.view())
	return out
}

// IntersectInto replaces s with s ∩ o. The result is built from nothing
// (s may share its spilled storage with value copies), so it is free only
// while it fits inline; SetIntersect is the form that reuses storage.
func (s *Set) IntersectInto(o Set) {
	snap := *s
	*s = Set{}
	intersectAppend(s, snap.view(), o.view())
}

// SetIntersect rebuilds s as a ∩ b over the storage s retains. s must
// not share storage with a or b.
func (s *Set) SetIntersect(a, b Set) {
	s.Reset()
	intersectAppend(s, a.view(), b.view())
}

// SetIntersectInterval rebuilds s as the subset of a inside iv over the
// storage s retains. s must not share storage with a.
func (s *Set) SetIntersectInterval(a Set, iv Interval) {
	s.Reset()
	if iv.IsEmpty() {
		return
	}
	one := [1]Interval{iv}
	intersectAppend(s, a.view(), one[:])
}

// subtractAppend appends the difference a \ b of the normalized
// sequences to dst.
func subtractAppend(dst *Set, a, b []Interval) {
	j := 0
	for i := 0; i < len(a); i++ {
		cur := a[i]
		for j < len(b) && b[j].Hi.Before(cur.Lo) {
			j++
		}
		for k := j; k < len(b) && b[k].Lo.AtOrBefore(cur.Hi); k++ {
			if cur.Lo.Before(b[k].Lo) {
				dst.appendIv(Interval{Lo: cur.Lo, Hi: b[k].Lo.Prev()})
			}
			if b[k].Hi.Before(cur.Hi) {
				cur.Lo = b[k].Hi.Next()
			} else {
				cur = Empty
				break
			}
		}
		if !cur.IsEmpty() {
			dst.appendIv(cur)
		}
	}
}

// Subtract returns the set difference s \ o. The receiver is not
// modified.
func (s Set) Subtract(o Set) Set {
	var out Set
	subtractAppend(&out, s.view(), o.view())
	return out
}

// SetSubtract rebuilds s as a \ b over the storage s retains. s must not
// share storage with a or b.
func (s *Set) SetSubtract(a, b Set) {
	s.Reset()
	subtractAppend(s, a.view(), b.view())
}

// Equal reports whether two sets contain exactly the same timestamps.
func (s Set) Equal(o Set) bool {
	a, b := s.view(), o.view()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the set as a list of intervals.
func (s Set) String() string {
	v := s.view()
	if len(v) == 0 {
		return "∅"
	}
	parts := make([]string, len(v))
	for i, iv := range v {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "∪")
}
