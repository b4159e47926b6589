package version

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

func ts(t int64) timestamp.Timestamp { return timestamp.New(t, 0) }

func TestNewListHasBottom(t *testing.T) {
	l := NewList()
	v, err := l.LatestBefore(ts(100))
	if err != nil {
		t.Fatal(err)
	}
	if v.Value != nil || v.TS != timestamp.Zero {
		t.Fatalf("initial version = %+v", v)
	}
	if l.Count() != 1 {
		t.Fatalf("Count = %d", l.Count())
	}
}

func TestInstallAndLookup(t *testing.T) {
	l := NewList()
	for _, p := range []int64{9, 2, 4} { // out of order install
		if err := l.Install(ts(p), []byte(fmt.Sprintf("v%d", p))); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		at   int64
		want string
	}{
		{3, "v2"},
		{4, "v2"}, // strictly before
		{5, "v4"},
		{10, "v9"},
	}
	for _, c := range cases {
		v, err := l.LatestBefore(ts(c.at))
		if err != nil {
			t.Fatal(err)
		}
		if string(v.Value) != c.want {
			t.Errorf("LatestBefore(%d) = %q want %q", c.at, v.Value, c.want)
		}
	}
	if v, err := l.LatestBefore(ts(1)); err != nil || v.Value != nil {
		t.Fatalf("LatestBefore(1) = %+v, %v", v, err)
	}
}

func TestLatestBeforeZero(t *testing.T) {
	l := NewList()
	if _, err := l.LatestBefore(timestamp.Zero); !errors.Is(err, ErrPurged) {
		t.Fatalf("nothing precedes Zero, got %v", err)
	}
}

func TestInstallWriteOnce(t *testing.T) {
	l := NewList()
	if err := l.Install(ts(5), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Install(ts(5), []byte("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
}

// The version at exactly t, if any, is LatestBefore(t.Next()).
func TestAt(t *testing.T) {
	l := NewList()
	if err := l.Install(ts(5), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if v, err := l.LatestBefore(ts(5).Next()); err != nil || v.TS != ts(5) || string(v.Value) != "a" {
		t.Fatalf("LatestBefore(5⁺) = %+v %v", v, err)
	}
	if v, err := l.LatestBefore(ts(6).Next()); err != nil || v.TS == ts(6) {
		t.Fatalf("LatestBefore(6⁺) = %+v %v, want no version at 6", v, err)
	}
}

// The newest version is LatestBefore(Infinity): ⊥ on a fresh list, then
// the newest installed whatever the install order.
func TestLatest(t *testing.T) {
	l := NewList()
	if v, err := l.LatestBefore(timestamp.Infinity); err != nil || v.Value != nil {
		t.Fatalf("latest of fresh list = %+v, %v; want bottom", v, err)
	}
	_ = l.Install(ts(3), []byte("x"))
	_ = l.Install(ts(9), []byte("y"))
	_ = l.Install(ts(6), []byte("z"))
	if got, err := l.LatestBefore(timestamp.Infinity); err != nil || string(got.Value) != "y" {
		t.Fatalf("LatestBefore(Infinity) = %+v, %v", got, err)
	}
}

func TestPurgeBelowKeepsBoundary(t *testing.T) {
	l := NewList()
	for _, p := range []int64{2, 4, 6, 8} {
		_ = l.Install(ts(p), []byte(fmt.Sprintf("v%d", p)))
	}
	// history: ⊥@0, 2, 4, 6, 8
	removed := l.Trim(ts(7))
	if removed != 3 { // ⊥@0, 2, 4 removed; 6 kept as boundary
		t.Fatalf("removed %d, want 3", removed)
	}
	if l.Count() != 2 {
		t.Fatalf("Count = %d", l.Count())
	}
	// reads above the boundary still work
	if v, err := l.LatestBefore(ts(7)); err != nil || string(v.Value) != "v6" {
		t.Fatalf("LatestBefore(7) = %+v %v", v, err)
	}
	// reads at or below the boundary abort
	if _, err := l.LatestBefore(ts(6)); !errors.Is(err, ErrPurged) {
		t.Fatalf("want ErrPurged, got %v", err)
	}
	if _, err := l.LatestBefore(ts(3)); !errors.Is(err, ErrPurged) {
		t.Fatalf("want ErrPurged, got %v", err)
	}
}

func TestPurgeBelowNoop(t *testing.T) {
	l := NewList()
	_ = l.Install(ts(5), []byte("a"))
	if removed := l.Trim(ts(2)); removed != 0 {
		t.Fatalf("removed %d", removed)
	}
	if removed := l.Trim(timestamp.Zero); removed != 0 {
		t.Fatalf("removed %d", removed)
	}
}

func TestInstallBelowFloorFails(t *testing.T) {
	l := NewList()
	_ = l.Install(ts(4), []byte("a"))
	_ = l.Install(ts(8), []byte("b"))
	l.Trim(ts(8)) // floor becomes 4
	if err := l.Install(ts(3), []byte("late")); !errors.Is(err, ErrPurged) {
		t.Fatalf("want ErrPurged, got %v", err)
	}
	if err := l.Install(ts(9), []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	l := NewList()
	_ = l.Install(ts(1), []byte("a"))
	snap := l.Snapshot()
	snap[0] = Version{TS: ts(99)}
	if l.Snapshot()[0].TS == ts(99) {
		t.Fatal("Snapshot must copy")
	}
}

// Lists that share an arena take and return its nodes from several
// goroutines at once; each must keep reading its own values.
func TestConcurrentListsShareArena(t *testing.T) {
	var arena Arena
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			l := ListIn(&arena)
			for i := int64(1); i <= 500; i++ {
				if err := l.Install(ts(i), []byte{g, byte(i)}); err != nil {
					errs <- err
					return
				}
				if i%16 == 0 {
					l.Trim(ts(i - 4))
				}
				v, err := l.LatestBefore(ts(i + 1))
				if err != nil || !reflect.DeepEqual(v.Value, []byte{g, byte(i)}) {
					errs <- fmt.Errorf("list %d: LatestBefore(%d) = %+v, %v", g, i+1, v, err)
					return
				}
			}
			// The last purge, below 492, kept 491 to 496; 497 to 500 followed.
			if n := l.Count(); n != 10 {
				errs <- fmt.Errorf("list %d: Count = %d, want 10", g, n)
			}
		}(byte(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sliceList is the layout List had before its chain: every version,
// ⊥ included, in one slice sorted by timestamp. It is the reference List
// must answer like, value for value and error for error.
type sliceList struct {
	versions []Version
	floor    timestamp.Timestamp
}

func newSliceList() *sliceList {
	return &sliceList{versions: []Version{{TS: timestamp.Zero}}}
}

// search returns the index of the first version at or after t.
func (l *sliceList) search(t timestamp.Timestamp) int {
	return sort.Search(len(l.versions), func(i int) bool {
		return l.versions[i].TS.AtOrAfter(t)
	})
}

func (l *sliceList) LatestBefore(t timestamp.Timestamp) (Version, error) {
	if t.AtOrBefore(l.floor) {
		return Version{}, ErrPurged
	}
	i := l.search(t)
	if i == 0 {
		return Version{}, ErrPurged
	}
	return l.versions[i-1], nil
}

func (l *sliceList) Install(t timestamp.Timestamp, value []byte) error {
	if t.AtOrBefore(l.floor) {
		return ErrPurged
	}
	i := l.search(t)
	if i < len(l.versions) && l.versions[i].TS == t {
		return ErrExists
	}
	l.versions = append(l.versions, Version{})
	copy(l.versions[i+1:], l.versions[i:])
	l.versions[i] = Version{TS: t, Value: value}
	return nil
}

func (l *sliceList) Trim(t timestamp.Timestamp) int {
	i := l.search(t)
	if i <= 1 {
		return 0
	}
	removed := i - 1
	l.versions = append(l.versions[:0], l.versions[removed:]...)
	if l.versions[0].TS.After(l.floor) {
		l.floor = l.versions[0].TS
	}
	return removed
}

func (l *sliceList) Count() int { return len(l.versions) }

func (l *sliceList) Snapshot() []Version { return slices.Clone(l.versions) }

// op is one call on a history; At is its timestamp, Infinity included.
type op struct {
	Kind int // one of the op* constants
	At   timestamp.Timestamp
}

const (
	opInstall = iota
	opPurge
	opLatestBefore
	opCount
	opSnapshot
	opKinds
)

// sameErr reports whether a and b are both nil or match the same
// sentinels under errors.Is.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) &&
		errors.Is(a, ErrPurged) == errors.Is(b, ErrPurged) &&
		errors.Is(a, ErrExists) == errors.Is(b, ErrExists)
}

// replay runs ops on l and on the reference, and reports the first call
// whose answers differ. Each install carries a value naming its step, so
// a duplicate that overwrote the first value would show.
func replay(l *List, ops []op) error {
	ref := newSliceList()
	for i, o := range ops {
		switch o.Kind {
		case opInstall:
			val := []byte{byte(i), byte(i >> 8)}
			if got, want := l.Install(o.At, val), ref.Install(o.At, val); !sameErr(got, want) {
				return fmt.Errorf("step %d Install(%v) = %v, want %v", i, o.At, got, want)
			}
		case opPurge:
			if got, want := l.Trim(o.At), ref.Trim(o.At); got != want {
				return fmt.Errorf("step %d Trim(%v) = %d, want %d", i, o.At, got, want)
			}
		case opLatestBefore:
			got, gerr := l.LatestBefore(o.At)
			want, werr := ref.LatestBefore(o.At)
			if !sameErr(gerr, werr) || !reflect.DeepEqual(got, want) {
				return fmt.Errorf("step %d LatestBefore(%v) = %+v, %v, want %+v, %v", i, o.At, got, gerr, want, werr)
			}
		case opCount:
			if got, want := l.Count(), ref.Count(); got != want {
				return fmt.Errorf("step %d Count() = %d, want %d", i, got, want)
			}
		case opSnapshot:
			if got, want := l.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("step %d Snapshot() = %+v, want %+v", i, got, want)
			}
		}
	}
	return nil
}

// Property: the chain answers every call like the sorted slice it
// replaced, over random sequences of installs — out of order, repeated,
// at Zero, at and below the purge floor — purges and lookups, whether
// its nodes come from the arena NewList's lists share or from one that
// lists before it have handed nodes back to.
func TestQuickLatestBeforeMatchesModel(t *testing.T) {
	gen := func(r *rand.Rand) []op {
		ops := make([]op, r.Intn(40))
		for i := range ops {
			ops[i] = op{Kind: r.Intn(opKinds), At: ts(int64(r.Intn(45)))}
			if r.Intn(2) == 0 {
				ops[i].Kind = opInstall // installs are most of a history
			}
			if r.Intn(8) == 0 {
				ops[i].At = timestamp.Infinity
			}
		}
		return ops
	}
	var arena Arena
	f := func(ops []op) bool {
		inArena := ListIn(&arena)
		for _, l := range []*List{NewList(), &inArena} {
			if err := replay(l, ops); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(gen(r))
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
