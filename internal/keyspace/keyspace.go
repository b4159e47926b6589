// Package keyspace is the storage kernel under both engines: the map
// from key to its lock table, which holds the key's interval locks and
// its version history under one mutex (lock.Table). The in-process store
// (internal/core, driven by internal/policy) and the storage server
// (internal/server, Alg. 13) each hold one Space; neither keeps a map or
// a walker of its own, and both read and commit through the table's
// steps.
package keyspace

import (
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
	// Locks is the key's history: its interval-compressed lock state and
	// its committed versions, whose nodes come from the arena of the
	// key's stripe and go back to it when a trim drops them.
	Locks *lock.Table
}

type stripe struct {
	mu    sync.RWMutex
	keys  map[string]*Key
	arena version.Arena // the version nodes of the stripe's keys
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
// Only the owning stripe is locked, and only for the map access: a lock
// table synchronizes itself, versions included. name may be a
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
	k = &Key{Name: own, Locks: lock.NewKeyTable(s.waits, own, s.timers, &st.arena)}
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
		st.Versions += ls.Versions
	})
	return st
}

// PurgeBelow trims every key below bound (lock.Table.Trim) and returns
// the number of versions and lock records removed. Any bound is safe: a
// key is trimmed no further than its oldest running transaction's
// locks, and a transaction older than the bound aborts — a read that
// needs a trimmed version fails with version.ErrPurged, and a write
// below the bound meets the frozen past.
func (s *Space) PurgeBelow(bound timestamp.Timestamp) (versions, locks int) {
	s.Each(func(k *Key) {
		v, l := k.Locks.Trim(bound)
		versions += v
		locks += l
	})
	return versions, locks
}
