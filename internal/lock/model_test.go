package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// The differential test below drives a Table and a brute-force model
// with the same random no-wait operations and compares them after every
// step. The model is the paper's conceptual lock state (§4.2) taken
// literally: one bit per (timestamp, owner, mode, frozen) over a domain
// small enough to enumerate — which is what the interval-compressed
// table must be indistinguishable from, however its records were split
// and merged on the way.

const (
	modelPoints = 64 // timestamps mp(0)..mp(63)
	modelOwners = 4
)

// mp is the i-th point of the model's domain. The points differ in the
// process component only, so they are consecutive under Next/Prev.
func mp(i int) timestamp.Timestamp { return timestamp.New(1, int32(i)) }

func mspan(lo, hi int) timestamp.Interval { return timestamp.Span(mp(lo), mp(hi)) }

// class indexes the model's bit planes: one per (owner, mode, frozen).
type class struct {
	owner  Owner
	mode   Mode
	frozen bool
}

type lockModel struct {
	held map[class]*[modelPoints]bool
}

func newLockModel() *lockModel {
	m := &lockModel{held: map[class]*[modelPoints]bool{}}
	for o := Owner(1); o <= modelOwners; o++ {
		for _, mode := range []Mode{ModeRead, ModeWrite} {
			for _, frozen := range []bool{false, true} {
				m.held[class{o, mode, frozen}] = new([modelPoints]bool)
			}
		}
	}
	return m
}

func (m *lockModel) clone() *lockModel {
	c := &lockModel{held: map[class]*[modelPoints]bool{}}
	for k, v := range m.held {
		cp := *v
		c.held[k] = &cp
	}
	return c
}

func (m *lockModel) plane(o Owner, mode Mode, frozen bool) *[modelPoints]bool {
	return m.held[class{o, mode, frozen}]
}

// conflictAt reports whether other owners hold unfrozen and frozen locks
// at point p that conflict with an acquisition by owner in the given
// mode.
func (m *lockModel) conflictAt(owner Owner, mode Mode, p int) (unfrozen, frozen bool) {
	for c, plane := range m.held {
		if c.owner == owner || !plane[p] || (mode == ModeRead && c.mode == ModeRead) {
			continue
		}
		if c.frozen {
			frozen = true
		} else {
			unfrozen = true
		}
	}
	return unfrozen, frozen
}

// entries renders the model as the table must hold it: per class, the
// maximal runs of held points, in normal order.
func (m *lockModel) entries() []EntryInfo {
	var out []EntryInfo
	for c, plane := range m.held {
		for p := 0; p < modelPoints; p++ {
			if !plane[p] {
				continue
			}
			lo := p
			for p+1 < modelPoints && plane[p+1] {
				p++
			}
			out = append(out, EntryInfo{Interval: mspan(lo, p), Owner: c.owner, Mode: c.mode, Frozen: c.frozen})
		}
	}
	normalise(out)
	return out
}

// normalise sorts lock records into an order that does not depend on
// how the table broke ties between records starting at one timestamp.
func normalise(es []EntryInfo) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if c := a.Interval.Lo.Compare(b.Interval.Lo); c != 0 {
			return c < 0
		}
		if c := a.Interval.Hi.Compare(b.Interval.Hi); c != 0 {
			return c < 0
		}
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		return !a.Frozen && b.Frozen
	})
}

func (m *lockModel) owned(owner Owner) (readOrWrite, writeOnly timestamp.Set) {
	for c, plane := range m.held {
		if c.owner != owner {
			continue
		}
		for p := 0; p < modelPoints; p++ {
			if plane[p] {
				readOrWrite.AddInPlace(timestamp.Point(mp(p)))
				if c.mode == ModeWrite {
					writeOnly.AddInPlace(timestamp.Point(mp(p)))
				}
			}
		}
	}
	return readOrWrite, writeOnly
}

// matches reports how the table differs from the model, or "".
func (m *lockModel) matches(tbl *Table) string {
	got := tbl.Snapshot()
	normalise(got)
	want := m.entries()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("snapshot\n got  %v\n want %v", got, want)
	}
	for o := Owner(1); o <= modelOwners; o++ {
		gotRW, gotW := tbl.Owned(o)
		wantRW, wantW := m.owned(o)
		if !gotRW.Equal(wantRW) || !gotW.Equal(wantW) {
			return fmt.Sprintf("Owned(%d) = %v, %v, want %v, %v", o, gotRW, gotW, wantRW, wantW)
		}
	}
	return ""
}

func TestTableMatchesPerTimestampModel(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		runModelSeed(t, int64(seed), 600)
	}
}

func runModelSeed(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	tbl := NewTable()
	m := newLockModel()
	randSpan := func() (lo, hi int) {
		lo = rng.Intn(modelPoints)
		hi = lo + rng.Intn(modelPoints-lo)
		if rng.Intn(4) == 0 {
			hi = lo + rng.Intn(min(3, modelPoints-lo))
		}
		return lo, hi
	}
	for step := 0; step < steps; step++ {
		owner := Owner(1 + rng.Intn(modelOwners))
		// alt is the second state an operation may legally leave behind,
		// where the table's answer depends on how it ordered two records
		// starting at one timestamp; nil when the outcome is determined.
		var alt *lockModel
		var desc string
		switch op := rng.Intn(16); {
		case op < 4:
			lo, hi := randSpan()
			partial := rng.Intn(3) > 0
			desc = fmt.Sprintf("AcquireRead(%d, [%d,%d], partial=%v)", owner, lo, hi, partial)
			got, err := tbl.AcquireRead(ctx, owner, mspan(lo, hi), Options{Partial: partial})
			// end is the last point before the first conflict. A frozen
			// and an unfrozen write lock of one owner can both cover
			// that point; which of the two the table reports is then its
			// own business.
			end, unfrozenAt, frozenAt := hi, false, false
			for p := lo; p <= hi; p++ {
				if unfrozenAt, frozenAt = m.conflictAt(owner, ModeRead, p); unfrozenAt || frozenAt {
					end = p - 1
					break
				}
			}
			if got.Frozen && !frozenAt || !got.Frozen && frozenAt && !unfrozenAt {
				t.Fatalf("seed %d step %d %s: Frozen = %v (at %v), the model has unfrozen %v, frozen %v at the first conflict",
					seed, step, desc, got.Frozen, got.FrozenAt, unfrozenAt, frozenAt)
			}
			switch {
			case end == hi:
				if err != nil || got.Got != mspan(lo, hi) {
					t.Fatalf("seed %d step %d %s: got %+v %v, want the whole span", seed, step, desc, got, err)
				}
			case !partial:
				wantErr := ErrConflict
				if got.Frozen {
					wantErr = ErrFrozen
				}
				if !errors.Is(err, wantErr) {
					t.Fatalf("seed %d step %d %s: err %v, want %v", seed, step, desc, err, wantErr)
				}
				end = lo - 1
			default:
				if err != nil || got.Got.IsEmpty() != (end < lo) || end >= lo && got.Got != mspan(lo, end) {
					t.Fatalf("seed %d step %d %s: got %+v %v, want the prefix up to %d", seed, step, desc, got, err, end)
				}
			}
			for p := lo; p <= end; p++ {
				m.plane(owner, ModeRead, false)[p] = true
			}
		case op < 8:
			var req timestamp.Set
			for n := 1 + rng.Intn(3); n > 0; n-- {
				lo, hi := randSpan()
				req.AddInPlace(mspan(lo, hi))
			}
			partial := rng.Intn(3) > 0
			desc = fmt.Sprintf("AcquireWrite(%d, %v, partial=%v)", owner, req, partial)
			var wantGot, wantDenied timestamp.Set
			anyFrozen := false
			for p := 0; p < modelPoints; p++ {
				if !req.Contains(mp(p)) {
					continue
				}
				if unfrozen, frozen := m.conflictAt(owner, ModeWrite, p); unfrozen || frozen {
					wantDenied.AddInPlace(timestamp.Point(mp(p)))
					anyFrozen = anyFrozen || frozen
				} else {
					wantGot.AddInPlace(timestamp.Point(mp(p)))
				}
			}
			got, err := tbl.AcquireWrite(ctx, owner, req, Options{Partial: partial})
			if !wantDenied.IsEmpty() && !partial {
				wantErr := ErrConflict
				if anyFrozen {
					wantErr = ErrFrozen
				}
				if !errors.Is(err, wantErr) || !got.Denied.Equal(wantDenied) {
					t.Fatalf("seed %d step %d %s: got %+v %v, want %v denying %v", seed, step, desc, got, err, wantErr, wantDenied)
				}
				break
			}
			if err != nil || !got.Got.Equal(wantGot) || !got.Denied.Equal(wantDenied) {
				t.Fatalf("seed %d step %d %s: got %+v %v, want got %v denied %v", seed, step, desc, got, err, wantGot, wantDenied)
			}
			for p := 0; p < modelPoints; p++ {
				if wantGot.Contains(mp(p)) {
					m.plane(owner, ModeWrite, false)[p] = true
				}
			}
		case op < 10:
			p := rng.Intn(modelPoints)
			desc = fmt.Sprintf("FreezeWriteAt(%d, %d)", owner, p)
			unfrozen, frozen := m.plane(owner, ModeWrite, false), m.plane(owner, ModeWrite, true)
			want := unfrozen[p] || frozen[p]
			if got := tbl.FreezeWriteAt(owner, mp(p)); got != want {
				t.Fatalf("seed %d step %d %s = %v, want %v", seed, step, desc, got, want)
			}
			if unfrozen[p] && frozen[p] {
				// The owner re-locked over its own frozen point: the
				// table answers from whichever record it meets first.
				alt = m.clone()
			}
			if unfrozen[p] {
				unfrozen[p], frozen[p] = false, true
			}
		case op < 12:
			lo, hi := randSpan()
			desc = fmt.Sprintf("FreezeReadIn(%d, [%d,%d])", owner, lo, hi)
			tbl.FreezeReadIn(owner, mspan(lo, hi))
			unfrozen, frozen := m.plane(owner, ModeRead, false), m.plane(owner, ModeRead, true)
			for p := lo; p <= hi; p++ {
				if unfrozen[p] {
					unfrozen[p], frozen[p] = false, true
				}
			}
		case op < 13:
			lo, hi := randSpan()
			desc = fmt.Sprintf("ReleaseReadIn(%d, [%d,%d])", owner, lo, hi)
			tbl.ReleaseReadIn(owner, mspan(lo, hi))
			for p := lo; p <= hi; p++ {
				m.plane(owner, ModeRead, false)[p] = false
			}
		case op < 14:
			desc = fmt.Sprintf("ReleaseUnfrozen(%d)", owner)
			tbl.ReleaseUnfrozen(owner)
			*m.plane(owner, ModeRead, false) = [modelPoints]bool{}
			*m.plane(owner, ModeWrite, false) = [modelPoints]bool{}
		case op < 15:
			desc = fmt.Sprintf("ReleaseWrites(%d)", owner)
			tbl.ReleaseWrites(owner)
			*m.plane(owner, ModeWrite, false) = [modelPoints]bool{}
		default:
			bound := rng.Intn(modelPoints)
			desc = fmt.Sprintf("PurgeFrozenBelow(%d)", bound)
			want := 0
			for _, e := range m.entries() {
				if e.Frozen && e.Interval.Hi.Before(mp(bound)) {
					want++
					plane := m.plane(e.Owner, e.Mode, true)
					for p := 0; p < bound; p++ {
						if e.Interval.Contains(mp(p)) {
							plane[p] = false
						}
					}
				}
			}
			if got := tbl.PurgeFrozenBelow(mp(bound)); got != want {
				t.Fatalf("seed %d step %d %s = %d, want %d", seed, step, desc, got, want)
			}
		}
		if err := tbl.Validate(); err != nil {
			t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
		}
		diff := m.matches(tbl)
		if diff != "" && alt != nil && alt.matches(tbl) == "" {
			m, diff = alt, ""
		}
		if diff != "" {
			t.Fatalf("seed %d step %d %s: %s", seed, step, desc, diff)
		}
	}
}
