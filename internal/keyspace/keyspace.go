// Package keyspace is the storage kernel under both engines: the map
// from key to its interval lock table and version history, and the one
// per-key step — the read step — whose outcome rests on how the two fit
// together. The in-process store (internal/core, driven by
// internal/policy) and the storage server (internal/server, Alg. 13)
// each hold one Space; neither keeps a map, a walker or a read body of
// its own.
package keyspace

import (
	"context"
	"sort"
	"strings"
	"sync"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

// stripeCount is the number of key-map stripes; a power of two so stripe
// selection is a mask.
const stripeCount = 64

// Key is the state of one key.
type Key struct {
	// Name is the space's own copy of the key, made when the key was
	// first touched. Callers may look keys up by views of a buffer they
	// are about to recycle (see wire.Decoder.StrView); whatever outlives
	// the lookup — a pending write's record, a replication-log record,
	// the lock table's label in the wait-for graph — uses Name instead.
	Name string
	// Locks is the interval-compressed lock state of the key.
	Locks *lock.Table
	// Versions is the committed version history of the key.
	Versions *version.List
}

type stripe struct {
	mu   sync.RWMutex
	keys map[string]*Key
}

// Space is a striped map of keys. Keys are created on first use and
// never deleted.
type Space struct {
	waits   *lock.WaitGraph
	timers  clock.Timers
	stripes [stripeCount]stripe
}

// New returns an empty space whose lock tables share the wait-for graph
// waits and park their waiters on timers (nil means the system clock).
func New(waits *lock.WaitGraph, timers clock.Timers) *Space {
	s := &Space{waits: waits, timers: timers}
	for i := range s.stripes {
		s.stripes[i].keys = make(map[string]*Key)
	}
	return s
}

// Key returns the state of the key called name, creating it if needed.
// Only the owning stripe is locked, and only for the map access: lock
// tables and version lists synchronize themselves. name may be a
// borrowed view: a lookup does not keep it, and a new key is entered
// under its own copy.
func (s *Space) Key(name string) *Key {
	st := &s.stripes[strhash.FNV1a(name)&(stripeCount-1)]
	st.mu.RLock()
	k, ok := st.keys[name]
	st.mu.RUnlock()
	if ok {
		return k
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if k, ok = st.keys[name]; ok {
		return k
	}
	own := strings.Clone(name)
	k = &Key{Name: own, Locks: lock.NewTableKeyedTimers(s.waits, own, s.timers), Versions: version.NewList()}
	st.keys[own] = k
	return k
}

// Each calls fn on every key. Key pointers are snapshotted per stripe
// before fn runs, so no stripe lock is held while fn takes per-key
// locks, and a scan cannot stall the creation of keys.
func (s *Space) Each(fn func(*Key)) {
	var keys []*Key
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		keys = keys[:0]
		for _, k := range st.keys {
			keys = append(keys, k)
		}
		st.mu.RUnlock()
		for _, k := range keys {
			fn(k)
		}
	}
}

// Names returns the name of every key, sorted. Since keys are never
// deleted, a cursor into the sorted list can only be outrun by
// insertions: a chunked scan may revisit a key that slid past the
// cursor, never skip one.
func (s *Space) Names() []string {
	var names []string
	s.Each(func(k *Key) { names = append(names, k.Name) })
	sort.Strings(names)
	return names
}

// Stats summarizes a space's state size, used by the state-size
// experiment (§8.4.5, Figure 6).
type Stats struct {
	// Keys is the number of distinct keys materialized.
	Keys int
	// LockEntries is the total number of interval-compressed lock
	// records across all keys.
	LockEntries int
	// FrozenLockEntries is how many of those records are frozen.
	FrozenLockEntries int
	// Versions is the total number of stored versions across all keys.
	Versions int
}

// Stats scans the space and returns its current state size.
func (s *Space) Stats() Stats {
	var st Stats
	s.Each(func(k *Key) {
		st.Keys++
		ls := k.Locks.Stats()
		st.LockEntries += ls.Entries
		st.FrozenLockEntries += ls.Frozen
		st.Versions += k.Versions.Count()
	})
	return st
}

// PurgeBelow discards versions and frozen lock state older than the
// bound (§6): each key keeps the newest version below the bound, and
// frozen lock records entirely below the bound are dropped. It returns
// the number of versions and lock records removed. A read that later
// needs a purged version fails with version.ErrPurged.
func (s *Space) PurgeBelow(bound timestamp.Timestamp) (versions, locks int) {
	s.Each(func(k *Key) {
		versions += k.Versions.PurgeBelow(bound)
		locks += k.Locks.PurgeFrozenBelow(bound)
	})
	return versions, locks
}

// ReadStep is one pass of the read step (Alg. 8 lines 4-11; Alg. 13,
// receive-read-lock-message): pick the latest committed version v below
// upper and read-lock, for owner, the interval from just after v up to
// upper — parking on unfrozen write locks when wait is set (bounded by
// ctx), taking the contiguous prefix it can get otherwise. got is the
// interval locked, possibly a strict prefix of the request, possibly
// empty.
//
// A frozen write lock met on the way up means a version committed
// inside the request (values are installed before their lock is
// frozen); frozenAt is where, and is Zero when none was met. The pass
// settles for the prefix below it when re-picking cannot do better: the
// frozen point is upper itself, so the newer version is not readable
// below upper; or the caller does not wait and the prefix is not empty.
// In both cases v stays correct for every serialization point in got.
// Otherwise the prefix is given back and again is set: the caller
// re-picks with another pass, between which it may give up.
func (k *Key) ReadStep(ctx context.Context, owner lock.Owner, upper timestamp.Timestamp, wait bool) (v version.Version, got timestamp.Interval, frozenAt timestamp.Timestamp, again bool, err error) {
	v, err = k.Versions.LatestBefore(upper)
	if err != nil {
		return version.Version{}, timestamp.Empty, timestamp.Zero, false, err
	}
	req := timestamp.Span(v.TS.Next(), upper)
	if req.IsEmpty() {
		return v, timestamp.Empty, timestamp.Zero, false, nil
	}
	res, err := k.Locks.AcquireRead(ctx, owner, req, lock.Options{Wait: wait, Partial: true})
	if err != nil {
		return version.Version{}, timestamp.Empty, timestamp.Zero, false, err
	}
	if !res.Frozen {
		return v, res.Got, timestamp.Zero, false, nil
	}
	frozenAt = res.FrozenAt.Lo
	if !frozenAt.Before(upper) || (!wait && !res.Got.IsEmpty()) {
		return v, res.Got, frozenAt, false, nil
	}
	if !res.Got.IsEmpty() {
		k.Locks.ReleaseReadIn(owner, res.Got)
	}
	return version.Version{}, timestamp.Empty, frozenAt, true, nil
}
