package timestamp

// ShrinkingSet is a set of timestamps that is only ever narrowed: the
// timestamps a transaction may still commit at, which every key it
// touches cuts down (the interval policies' I, the commit step's
// candidate set T). It keeps two storages and rebuilds each new value in
// the one the current value is not in, so a ShrinkingSet that is kept
// and reused stops allocating once both have held their largest set. The
// zero value is empty and ready for use.
type ShrinkingSet struct {
	cur, spare Set
}

// Reset makes the set hold exactly iv.
func (s *ShrinkingSet) Reset(iv Interval) {
	s.cur.Reset()
	s.cur.AddInPlace(iv)
}

// Set returns the current value. It shares storage with s, so it is good
// only until s next changes, and must not be modified.
func (s *ShrinkingSet) Set() Set { return s.cur }

// IsEmpty reports whether no timestamp is left.
func (s *ShrinkingSet) IsEmpty() bool { return s.cur.IsEmpty() }

// Intersect narrows the set to its intersection with o, which must not
// share storage with it.
func (s *ShrinkingSet) Intersect(o Set) {
	s.spare.SetIntersect(s.cur, o)
	s.cur, s.spare = s.spare, s.cur
}

// IntersectInterval narrows the set to its part inside iv.
func (s *ShrinkingSet) IntersectInterval(iv Interval) {
	s.spare.SetIntersectInterval(s.cur, iv)
	s.cur, s.spare = s.spare, s.cur
}

// Swap exchanges the current value with *o. It is how the set adopts a
// value computed elsewhere from Set() — the grant of a write-lock
// request for it — without copying: o's storage becomes the set's, and
// the set's goes to o in its place, so the two never alias.
func (s *ShrinkingSet) Swap(o *Set) {
	s.cur, *o = *o, s.cur
}
