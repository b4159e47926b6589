package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
// and merged on the way, and however few of them it stores for what it
// renders: a version and the reads frozen above it are one record, so
// the table may store fewer frozen records than the model has frozen
// runs, never more. One thing the model forgets on purpose: who froze a
// read. A frozen read bit belongs to the anonymous owner, and an owner
// freezes its reads only as it finishes on the key, in the protocol's
// order — freeze the reads, release the rest. And one rule for purges:
// a purge that drops history leaves every timestamp below its bound
// frozen-read, from Zero on.

// modelConfig sizes one run of the differential test: timestamps
// mp(0)..mp(points-1) and owners 1..owners. When acquireSpan is nonzero
// acquisitions ask for at most that many points, which keeps records
// apart so that the lists grow long; when drainEvery is nonzero every
// other stretch of that many steps acquires nothing, so that they shrink
// again, and the stretches between them purge nothing, so that frozen
// history — merged across readers, so slower to lengthen — grows.
type modelConfig struct {
	points, owners, acquireSpan, drainEvery int
}

var (
	// modelSmall is dense: long spans over few points, so records split
	// and merge all the time and both lists stay short.
	modelSmall = modelConfig{points: 64, owners: 4}
	// modelLong is sparse: both lists grow past indexLen and shrink back
	// below it, several times a run.
	modelLong = modelConfig{points: 160, owners: 8, acquireSpan: 4, drainEvery: 150}
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
	cfg  modelConfig
	held map[class][]bool
	// purged is set once a purge has frozen the past: the frozen reads
	// from point 0 then reach down to Zero.
	purged bool
}

// newLockModel returns an empty model. Frozen reads have one plane, the
// anonymous owner's; no named owner has one.
func newLockModel(cfg modelConfig) *lockModel {
	m := &lockModel{cfg: cfg, held: map[class][]bool{}}
	m.held[class{anonymous, ModeRead, true}] = make([]bool, cfg.points)
	for o := Owner(1); o <= Owner(cfg.owners); o++ {
		for _, c := range []class{{o, ModeRead, false}, {o, ModeWrite, false}, {o, ModeWrite, true}} {
			m.held[c] = make([]bool, cfg.points)
		}
	}
	return m
}

func (m *lockModel) plane(o Owner, mode Mode, frozen bool) []bool {
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
		for p := 0; p < len(plane); p++ {
			if !plane[p] {
				continue
			}
			lo := p
			for p+1 < len(plane) && plane[p+1] {
				p++
			}
			iv := mspan(lo, p)
			if lo == 0 && m.purged && c.owner == anonymous {
				iv.Lo = timestamp.Zero
			}
			out = append(out, EntryInfo{Interval: iv, Owner: c.owner, Mode: c.mode, Frozen: c.frozen})
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
		for p := range plane {
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
	for i := 1; i < len(got); i++ {
		if got[i].Interval.Lo.Before(got[i-1].Interval.Lo) {
			return fmt.Sprintf("snapshot not in start order at %d: %v", i, got)
		}
	}
	normalise(got)
	want := m.entries()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("snapshot\n got  %v\n want %v", got, want)
	}
	for o := Owner(1); o <= Owner(m.cfg.owners); o++ {
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
		runModelSeed(t, modelSmall, int64(seed), 600)
	}
	// The sparse configuration is there for the index: its runs must
	// take each list past indexLen and back, or they test nothing new.
	var total indexCrossings
	for seed := 1; seed <= seeds; seed++ {
		c := runModelSeed(t, modelLong, int64(seed), 600)
		total.liveUp += c.liveUp
		total.liveDown += c.liveDown
		total.frozenUp += c.frozenUp
		total.frozenDown += c.frozenDown
	}
	if min(total.liveUp, total.liveDown, total.frozenUp, total.frozenDown) < seeds/2 {
		t.Errorf("over %d seeds the lists crossed the index length %+v times, want each count at least %d", seeds, total, seeds/2)
	}
}

// indexCrossings counts how often each list of a table grew past
// indexLen (Up) and shrank back to it (Down) between two steps.
type indexCrossings struct {
	liveUp, liveDown, frozenUp, frozenDown int
	liveLong, frozenLong                   bool
}

func (c *indexCrossings) observe(tbl *Table) {
	step := func(long *bool, up, down *int, n int) {
		switch now := n > indexLen; {
		case now && !*long:
			*up++
		case !now && *long:
			*down++
		}
		*long = n > indexLen
	}
	step(&c.liveLong, &c.liveUp, &c.liveDown, len(tbl.live.entries))
	step(&c.frozenLong, &c.frozenUp, &c.frozenDown, len(tbl.frozen.entries))
}

func runModelSeed(t *testing.T, cfg modelConfig, seed int64, steps int) indexCrossings {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	tbl := NewTable()
	m := newLockModel(cfg)
	points := cfg.points
	randSpan := func() (lo, hi int) {
		lo = rng.Intn(points)
		hi = lo + rng.Intn(points-lo)
		if rng.Intn(4) == 0 {
			hi = lo + rng.Intn(min(3, points-lo))
		}
		return lo, hi
	}
	acquireSpan := randSpan
	if cfg.acquireSpan > 0 {
		acquireSpan = func() (lo, hi int) {
			lo = rng.Intn(points)
			return lo, lo + rng.Intn(min(cfg.acquireSpan, points-lo))
		}
	}
	// Every write acquisition reports into this one result, left as the
	// previous step made it: what a reused result says must not depend
	// on what it held.
	var dirty WriteResult
	var crossings indexCrossings
	for step := 0; step < steps; step++ {
		owner := Owner(1 + rng.Intn(cfg.owners))
		var desc string
		op := rng.Intn(15)
		if cfg.drainEvery > 0 {
			switch draining := step/cfg.drainEvery%2 == 1; {
			case draining && op < 8:
				op = 8 + op%6 // a freeze or release in the acquisition's place
			case !draining && op == 14:
				op = 8 // a write freeze in the purge's place
			}
		}
		switch {
		case op < 4:
			lo, hi := acquireSpan()
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
			switch {
			case end == hi:
				if err != nil || got.Got != mspan(lo, hi) {
					t.Fatalf("seed %d step %d %s: got %+v %v, want the whole span", seed, step, desc, got, err)
				}
			case !partial:
				if !(frozenAt && errors.Is(err, ErrFrozen) || unfrozenAt && errors.Is(err, ErrConflict)) {
					t.Fatalf("seed %d step %d %s: err %v, the model has unfrozen %v, frozen %v at the first conflict",
						seed, step, desc, err, unfrozenAt, frozenAt)
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
				lo, hi := acquireSpan()
				req.AddInPlace(mspan(lo, hi))
			}
			partial := rng.Intn(3) > 0
			desc = fmt.Sprintf("AcquireWrite(%d, %v, partial=%v)", owner, req, partial)
			var wantGot, wantDenied timestamp.Set
			anyFrozen := false
			for p := 0; p < points; p++ {
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
			got := &dirty
			err := tbl.AcquireWriteInto(ctx, owner, req, Options{Partial: partial}, got)
			// An owner's locks never conflict with its own, so asking
			// again changes nothing and must say the same — this time
			// into a fresh result.
			fresh, freshErr := tbl.AcquireWrite(ctx, owner, req, Options{Partial: partial})
			if !fresh.Got.Equal(got.Got) || !fresh.Denied.Equal(got.Denied) || (err == nil) != (freshErr == nil) {
				t.Fatalf("seed %d step %d %s: reused result {%v %v} %v, fresh result {%v %v} %v",
					seed, step, desc, got.Got, got.Denied, err, fresh.Got, fresh.Denied, freshErr)
			}
			if !wantDenied.IsEmpty() && !partial {
				wantErr := ErrConflict
				if anyFrozen {
					wantErr = ErrFrozen
				}
				if !errors.Is(err, wantErr) || !got.Got.IsEmpty() || !got.Denied.Equal(wantDenied) {
					t.Fatalf("seed %d step %d %s: got {%v %v} %v, want %v denying %v", seed, step, desc, got.Got, got.Denied, err, wantErr, wantDenied)
				}
				break
			}
			if err != nil || !got.Got.Equal(wantGot) || !got.Denied.Equal(wantDenied) {
				t.Fatalf("seed %d step %d %s: got {%v %v} %v, want got %v denied %v", seed, step, desc, got.Got, got.Denied, err, wantGot, wantDenied)
			}
			for p := 0; p < points; p++ {
				if wantGot.Contains(mp(p)) {
					m.plane(owner, ModeWrite, false)[p] = true
				}
			}
		case op < 10:
			unfrozen, frozen := m.plane(owner, ModeWrite, false), m.plane(owner, ModeWrite, true)
			p := rng.Intn(points)
			if rng.Intn(2) == 0 {
				// Aim at the next point the owner holds, if there is
				// one: over a sparse table a blind shot mostly misses.
				for q := p; q < points; q++ {
					if unfrozen[q] {
						p = q
						break
					}
				}
			}
			desc = fmt.Sprintf("Commit(%d, %d)", owner, p)
			want := unfrozen[p] || frozen[p]
			if _, err := tbl.Commit(owner, mp(p), nil, timestamp.Zero); (err == nil) != want {
				t.Fatalf("seed %d step %d %s = %v, want success %v", seed, step, desc, err, want)
			}
			// An owner that re-locked over its own frozen point holds
			// both; the table looks at the unfrozen list first, so the
			// unfrozen lock is the one it finds and freezes.
			if unfrozen[p] {
				unfrozen[p], frozen[p] = false, true
			}
		case op < 12:
			lo, hi := randSpan()
			desc = fmt.Sprintf("FreezeReadIn(%d, [%d,%d]), ReleaseUnfrozen(%d)", owner, lo, hi, owner)
			tbl.FreezeReadIn(owner, mspan(lo, hi))
			tbl.ReleaseUnfrozen(owner)
			// The frozen reads become history, less the owner's own frozen
			// write points; everything else the owner held unfrozen goes.
			reads, written := m.plane(owner, ModeRead, false), m.plane(owner, ModeWrite, true)
			history := m.plane(anonymous, ModeRead, true)
			for p := lo; p <= hi; p++ {
				if reads[p] && !written[p] {
					history[p] = true
				}
			}
			clear(reads)
			clear(m.plane(owner, ModeWrite, false))
		case op < 13:
			desc = fmt.Sprintf("ReleaseUnfrozen(%d)", owner)
			tbl.ReleaseUnfrozen(owner)
			clear(m.plane(owner, ModeRead, false))
			clear(m.plane(owner, ModeWrite, false))
		case op < 14:
			desc = fmt.Sprintf("ReleaseWrites(%d)", owner)
			tbl.ReleaseWrites(owner)
			clear(m.plane(owner, ModeWrite, false))
		default:
			bound := rng.Intn(points)
			desc = fmt.Sprintf("PurgeFrozenBelow(%d)", bound)
			// The bound falls to the oldest unfrozen lock. With a frozen
			// write below it, the runs wholly below it are dropped and
			// every point below it becomes a frozen read; without one,
			// nothing changes.
			low := bound
			for c, plane := range m.held {
				if i := slices.Index(plane[:low], true); !c.frozen && i >= 0 {
					low = i
				}
			}
			written := false
			for c, plane := range m.held {
				if c.frozen && c.owner != anonymous && slices.Contains(plane[:low], true) {
					written = true
				}
			}
			want := 0
			if written {
				for _, e := range m.entries() {
					if e.Frozen && e.Interval.Hi.Before(mp(low)) {
						want++
					}
				}
				for c, plane := range m.held {
					if c.frozen {
						for p := 0; p < low; p++ {
							plane[p] = c.owner == anonymous
						}
					}
				}
				m.purged = true
			}
			if got := tbl.PurgeFrozenBelow(mp(bound)); got != want {
				t.Fatalf("seed %d step %d %s = %d, want %d", seed, step, desc, got, want)
			}
		}
		if err := tbl.Validate(); err != nil {
			t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
		}
		if diff := m.matches(tbl); diff != "" {
			t.Fatalf("seed %d step %d %s: %s", seed, step, desc, diff)
		}
		// A version and the reads frozen above it share a record, so the
		// table never stores more frozen records than it renders.
		runs := 0
		for _, e := range m.entries() {
			if e.Frozen {
				runs++
			}
		}
		if stored := len(tbl.frozen.entries); stored > runs {
			t.Fatalf("seed %d step %d %s: %d frozen records stored for %d frozen runs", seed, step, desc, stored, runs)
		}
		crossings.observe(tbl)
	}
	return crossings
}
