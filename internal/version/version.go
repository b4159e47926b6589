// Package version implements the multiversion store: for each key, an
// ordered history of committed values indexed by timestamp.
//
// The paper models the data as an array Values[k, t] of write-once cells,
// with Values[k, 0] = ⊥ for every key (§4.1). This package keeps, per key,
// the committed versions as a chain of fixed-size nodes, newest first,
// supports the latest-before lookup that reads need, and implements
// version purging (§6): versions older than a bound can be discarded —
// keeping the newest one below the bound — and transactions that would
// need a purged version are aborted.
//
// The initial version ⊥ has no node: it is present while the purge floor
// is still Zero, and the first purge that drops it raises the floor.
// A read at "now" finds its version at the head of the chain, one step.
// Nodes come from an Arena shared by many lists (the keyspace gives each
// of its stripes one; lists without one of their own share one), which
// carves them in chunks and takes back the nodes a purge drops on a free
// list, zeroed, so a recycled node never keeps a value alive.
//
// A List does not synchronize itself: its caller does. A key's history
// lives in its lock table (lock.Table), under the table's mutex, so that
// a read picks its version and locks above it, and a commit installs its
// version and freezes its write lock, in one critical section.
package version

import (
	"errors"
	"fmt"
	"sync"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Sentinel errors.
var (
	// ErrExists reports an attempt to install a second version at the
	// same timestamp; cells are write-once (§4.2).
	ErrExists = errors.New("version: version already exists at timestamp")
	// ErrPurged reports that the requested version may have been purged,
	// so the lookup cannot be answered reliably; the transaction must
	// abort (§6).
	ErrPurged = errors.New("version: version purged")
)

// Version is one committed value of a key. A nil Value represents ⊥ (the
// key holds no data at this version).
type Version struct {
	TS    timestamp.Timestamp
	Value []byte
}

// node is one committed version in a list's chain.
type node struct {
	Version
	older *node
}

// arenaChunk is how many nodes an Arena carves from one allocation.
const arenaChunk = 128

// Arena hands out the nodes of the lists built on it and takes back the
// nodes their purges drop. The zero value is ready for use. Lists of
// several keys share one, so it has a lock of its own, taken under the
// lock of a list's caller.
type Arena struct {
	mu    sync.Mutex
	chunk []node // the uncarved rest of the newest chunk
	free  *node  // dropped nodes, zeroed, linked through older
}

// get returns a zeroed node.
func (a *Arena) get() *node {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := a.free; n != nil {
		a.free = n.older
		n.older = nil
		return n
	}
	if len(a.chunk) == 0 {
		a.chunk = make([]node, arenaChunk)
	}
	n := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return n
}

// put zeroes the chain starting at n and adds it to the free list.
func (a *Arena) put(n *node) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for n != nil {
		older := n.older
		*n = node{older: a.free}
		a.free = n
		n = older
	}
}

// List is the version history of a single key. The zero value, like a
// new List from NewList or ListIn, holds the initial version ⊥ at
// timestamp Zero.
type List struct {
	arena  *Arena // where the chain's nodes come from and go back to; nil means shared
	newest *node  // the committed versions, newest first; ⊥ is implicit
	nodes  int    // length of the chain
	// floor is the timestamp of the oldest version whose predecessors
	// are all intact: lookups at or below floor are unreliable after a
	// purge and return ErrPurged. ⊥ is present while floor is Zero; once
	// a purge raises it, the oldest node sits at floor.
	floor timestamp.Timestamp
}

// shared is the arena of the lists that have none of their own.
var shared Arena

// NewList returns a history containing only the initial version ⊥,
// whose nodes come from an arena shared by every list without one of
// its own.
func NewList() *List { return new(List) }

// ListIn returns a history containing only the initial version ⊥, whose
// nodes come from a and go back to it when purged.
func ListIn(a *Arena) List { return List{arena: a} }

// nodeArena returns the arena the list's nodes come from.
func (l *List) nodeArena() *Arena {
	if l.arena == nil {
		return &shared
	}
	return l.arena
}

// bottom is the initial version ⊥.
var bottom = Version{TS: timestamp.Zero}

// hasBottom reports whether ⊥ is still held.
func (l *List) hasBottom() bool { return l.floor == timestamp.Zero }

// LatestBefore returns the version with the largest timestamp strictly
// below t. It returns ErrPurged if that version may have been discarded,
// and ErrPurged also when t is Zero (nothing precedes Zero).
func (l *List) LatestBefore(t timestamp.Timestamp) (Version, error) {
	if t.AtOrBefore(l.floor) {
		return Version{}, fmt.Errorf("latest before %v: %w", t, ErrPurged)
	}
	for n := l.newest; n != nil; n = n.older {
		if n.TS.Before(t) {
			return n.Version, nil
		}
	}
	if l.hasBottom() {
		return bottom, nil
	}
	// Unreachable while the oldest node sits at floor < t.
	return Version{}, fmt.Errorf("latest before %v: %w", t, ErrPurged)
}

// Install exposes a committed value at timestamp t (Alg. 1 line 19).
// Cells are write-once: installing twice at the same timestamp fails with
// ErrExists, and installing at or below the purge floor fails with
// ErrPurged.
func (l *List) Install(t timestamp.Timestamp, value []byte) error {
	if t.AtOrBefore(l.floor) {
		return fmt.Errorf("install at %v: %w", t, ErrPurged)
	}
	at := &l.newest
	for *at != nil && (*at).TS.After(t) {
		at = &(*at).older
	}
	if *at != nil && (*at).TS == t {
		return fmt.Errorf("install at %v: %w", t, ErrExists)
	}
	n := l.nodeArena().get()
	n.Version = Version{TS: t, Value: value}
	n.older = *at
	*at = n
	l.nodes++
	return nil
}

// Trim discards versions with timestamps below t, keeping the newest
// version below t (so that readers above t still find their snapshot),
// and returns the number of versions discarded. The purge floor rises to
// the kept boundary version's timestamp.
func (l *List) Trim(t timestamp.Timestamp) (removed int) {
	keep := l.newest
	for keep != nil && keep.TS.AtOrAfter(t) {
		keep = keep.older
	}
	if keep == nil {
		// At most ⊥ is below t, and it is the boundary.
		return 0
	}
	dropped := 0
	for n := keep.older; n != nil; n = n.older {
		dropped++
	}
	removed = dropped
	if l.hasBottom() {
		removed++
	}
	if removed == 0 {
		return 0
	}
	l.nodeArena().put(keep.older)
	keep.older = nil
	l.nodes -= dropped
	l.floor = keep.TS
	return removed
}

// Count returns the number of stored versions (including the boundary
// and initial versions).
func (l *List) Count() int {
	if l.hasBottom() {
		return l.nodes + 1
	}
	return l.nodes
}

// Snapshot returns a copy of the history, oldest first.
func (l *List) Snapshot() []Version {
	i := l.Count()
	out := make([]Version, i) // out[0] stays ⊥ while it is held
	for n := l.newest; n != nil; n = n.older {
		i--
		out[i] = n.Version
	}
	return out
}
