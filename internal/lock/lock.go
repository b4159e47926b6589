// Package lock implements freezable interval locks over the timestamp
// domain — the central data structure of MVTL.
//
// The paper (§4.2) conceptually gives every (key, timestamp) pair its own
// readers-writer lock that can additionally be *frozen*: a frozen lock is
// never released, sealing the fate of the write-once cell Values[k, t].
// A practical implementation must compress this infinite lock state; as
// suggested in §6 we keep, per key, a short list of lock *intervals*, each
// tagged with an owner, a mode and a frozen bit.
//
// Conflict rules (for locks held by different owners):
//
//   - read  vs read:  never conflict;
//   - read  vs write: conflict;
//   - write vs write: conflict.
//
// Locks held by the same owner never conflict with each other, which
// permits read→write upgrades. A frozen conflicting lock is permanent:
// waiting for it is useless, and the acquisition APIs report it
// distinctly so policies can react (for example by re-picking the version
// to read, as MVTO-style policies do).
//
// # Performance model
//
// A table keeps two lists of records, each sorted by interval start:
// live holds the unfrozen records (running transactions, and the read
// locks MVTO-style policies leave behind), frozen holds history. A
// record's frozen bit is the list that holds it, so an operation pays
// for the list it concerns, not for both:
//
//   - releasing, taking or splitting an owner's unfrozen locks, the
//     blocker scans that feed the wait-for graph, and every unfrozen
//     insert touch only live — O(live), however long the key's history;
//   - PurgeFrozenBelow and the frozen half of a conflict scan touch only
//     frozen, and Stats reads two lengths;
//   - a conflict scan (AcquireRead's first conflict, AcquireWrite's
//     conflict sets) looks at both, live first;
//   - OwnedInto walks live, and merges history in only when the owner
//     filter below lets it.
//
// Past indexLen records a list also carries a running prefix maximum of
// interval ends (maxHi, monotone, so it can be binary searched): a scan
// narrows to the window [first record whose prefix-max end reaches the
// query, first record starting past the query) in O(log n) and walks only
// that, O(log n + k) for k candidates. A list of at most indexLen records
// has no index and is scanned whole, which is faster than two binary
// searches and spares every cold key the index's allocation; a list's
// record slice starts at capacity initialCap, so that a cold key's one
// or two records cost one allocation per list. Structural updates
// (insert, remove) are O(n) in the list they change, from the slice copy
// and the index repair behind it.
//
// The table knows the smallest and the largest owner id in its frozen
// list (widened by every freeze, recomputed by every purge). An owner
// outside those bounds has no frozen record — as a filter the bounds
// are exact — and OwnedInto then never reads history. Transaction ids
// grow with time, so a transaction that has not frozen anything on the
// key yet is usually above the bounds; one that falls inside them
// without a record (a younger transaction froze first) pays one
// O(frozen) merge walk.
//
// Blocked acquisitions park on a per-waiter channel tagged with the
// intervals the waiter is blocked on. A release, freeze or purge wakes
// only the waiters whose tagged intervals overlap the state that
// actually changed — O(w) overlap checks for w parked waiters — where
// the previous implementation closed a table-wide broadcast channel,
// waking all w waiters on every state change so that each of them
// rescanned the table (O(w·n) work and w spurious scheduler round trips
// per release).
package lock

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Owner identifies a lock holder (a transaction).
type Owner uint64

// Mode distinguishes read locks from write locks.
type Mode uint8

// Lock modes.
const (
	ModeRead Mode = iota + 1
	ModeWrite
)

// String renders the mode for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeRead:
		return "read"
	case ModeWrite:
		return "write"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Sentinel errors returned by the acquisition methods.
var (
	// ErrConflict reports that an unfrozen conflicting lock blocked an
	// all-or-nothing, no-wait acquisition. Retrying later may succeed.
	ErrConflict = errors.New("lock: conflicting lock held")
	// ErrFrozen reports that a frozen conflicting lock makes the
	// requested acquisition permanently impossible.
	ErrFrozen = errors.New("lock: conflicting frozen lock")
)

// Options control how an acquisition behaves when it meets conflicts.
type Options struct {
	// Wait blocks on conflicting locks that are not frozen, resuming
	// when they are released or frozen. The context bounds the wait
	// (deadlock handling by timeout, §4.3).
	Wait bool
	// Partial accepts acquiring only part of the request: for reads,
	// the maximal contiguous prefix; for writes, every requested
	// timestamp not covered by a conflict.
	Partial bool
}

// ReadResult reports the outcome of AcquireRead.
type ReadResult struct {
	// Got is the contiguous interval of read locks acquired, starting
	// at the requested lower bound. It may be empty.
	Got timestamp.Interval
	// Frozen reports that the scan upward met a conflicting frozen write
	// interval, and FrozenAt is the first one met: a committed version
	// exists inside the requested range, so MVTO-style policies should
	// re-pick the version to read. FrozenAt means nothing unless Frozen
	// is set.
	Frozen   bool
	FrozenAt timestamp.Interval
}

// WriteResult reports the outcome of a write acquisition. A caller that
// keeps one WriteResult and hands it to AcquireWriteInto again and again
// stops allocating once its sets have grown: besides the two results it
// holds the conflict scan's working sets, which cannot live in the Table
// (an acquisition that parks drops the table mutex).
type WriteResult struct {
	// Got is the set of write-locked timestamps acquired (it may have
	// holes when Partial is set).
	Got timestamp.Set
	// Denied is the subset of the request that conflicts prevented,
	// intersected with the request.
	Denied timestamp.Set

	// frozenConf and liveConf are the request's timestamps that conflict
	// with other owners' frozen and unfrozen records.
	frozenConf, liveConf timestamp.Set
}

// entry is one interval-compressed lock record. It has no frozen bit:
// the list that holds it says whether it is frozen.
type entry struct {
	iv    timestamp.Interval
	owner Owner
	mode  Mode
}

const (
	// indexLen is the list length past which the prefix-max index is
	// kept; a list this short or shorter is scanned whole.
	indexLen = 8
	// initialCap is the capacity a list's record slice starts with.
	initialCap = 2
)

// list is a sequence of lock records sorted by interval start, with the
// prefix-max index over interval ends while it is long enough to need
// one (see "Performance model" in the package comment). Table guards it.
type list struct {
	entries []entry // sorted by iv.Lo
	// maxHi[i] is the maximum iv.Hi over entries[0..i] while
	// len(entries) > indexLen, and empty otherwise. It is monotone
	// non-decreasing, so binary search finds the first index whose
	// prefix can still overlap a query interval.
	maxHi []timestamp.Timestamp
}

// waiter is one parked acquisition: spans are the intervals it is
// blocked on, and done receives one signal (exactly once, from the
// waker that also unlinks the waiter from the table) when overlapping
// lock state is released or frozen. owner and mode identify the parked
// request so that later-inserted conflicting locks can extend the
// waiter's wait-for edges. Waiters are pooled per table: done is a
// level-triggered wake slot that is drained, never torn down, so the
// whole struct (including its spans storage) is reused and the blocking
// path does not allocate once the pool is warm. On a virtual timeline
// the park marks the waiter quiescent, so lock-wait timeouts resolve by
// timeline jump instead of wall clock.
type waiter struct {
	owner Owner
	mode  Mode
	spans []timestamp.Interval
	done  clock.Waiter
	// linked is true while the waiter sits in Table.waiters (guarded by
	// the table mutex). A waiter woken by WaitGraph.Abort is signalled
	// without being unlinked, so the wake path checks this instead of
	// scanning the waiter list unconditionally.
	linked bool
}

// overlaps reports whether the waiter is interested in iv.
func (w *waiter) overlaps(iv timestamp.Interval) bool {
	for _, s := range w.spans {
		if s.Overlaps(iv) {
			return true
		}
	}
	return false
}

// Table is the freezable interval lock table for one key. The zero value
// is not ready for use; call NewTable.
type Table struct {
	mu sync.Mutex
	// live holds the unfrozen records, frozen the frozen ones.
	live, frozen list
	// frozenMinOwner and frozenMaxOwner are the smallest and the largest
	// owner of the records in frozen; they say nothing while it is empty.
	frozenMinOwner, frozenMaxOwner Owner
	// waiters are the currently parked acquisitions, in no particular
	// order. waitLo/waitHi bound the union of their spans (they may
	// overshoot after waiters leave; they are tightened whenever the
	// list empties), letting releases of untouched ranges skip the
	// waiter scan entirely.
	waiters        []*waiter
	waitLo, waitHi timestamp.Timestamp
	// free is the waiter freelist (capped at maxFreeWaiters); parking
	// reuses pooled waiters instead of allocating one per block.
	free []*waiter
	// blockerScratch is reused by the blocker scans feeding the
	// wait-for graph; it is only touched with mu held, and its contents
	// are consumed before the mutex is dropped.
	blockerScratch []Owner
	// graph, when non-nil, detects wait-for cycles across the tables
	// sharing it; blocked acquisitions fail fast with ErrDeadlock
	// instead of waiting for a timeout.
	graph *WaitGraph
	// key labels this table's edges in the shared wait-for graph, so an
	// exported edge names the key its waiter blocks on (cross-server
	// detectors route victim aborts by it).
	key string
	// timers supplies the timeline waiters park on; nil means
	// SystemTimers (set lazily by getWaiterLocked).
	timers clock.Timers
}

// maxFreeWaiters caps the per-table waiter freelist; more parked
// waiters than this simply fall back to allocating.
const maxFreeWaiters = 64

// NewTable returns an empty lock table without deadlock detection
// (waits are bounded by the caller's context only).
func NewTable() *Table {
	return &Table{}
}

// NewTableDetected returns a lock table participating in the shared
// wait-for graph g.
func NewTableDetected(g *WaitGraph) *Table {
	return &Table{graph: g}
}

// NewTableKeyedTimers returns a lock table participating in the shared
// wait-for graph g whose edges are labelled with key, so graph
// snapshots exported for cross-server deadlock detection name the key
// each waiter blocks on. Parked waiters use the wake slots of timeline
// t, so the fault bed can expire lock waits by virtual-time jump; a nil
// t means SystemTimers.
func NewTableKeyedTimers(g *WaitGraph, key string, t clock.Timers) *Table {
	return &Table{graph: g, key: key, timers: t}
}

// AcquireRead acquires read locks on a contiguous interval starting at
// iv.Lo, following the semantics of the paper's read-locks step (§4.3):
// the interval must begin immediately after the version being read, so a
// partial acquisition keeps the *prefix* before the first conflict.
func (t *Table) AcquireRead(ctx context.Context, owner Owner, iv timestamp.Interval, opts Options) (ReadResult, error) {
	if iv.IsEmpty() {
		return ReadResult{Got: timestamp.Empty}, nil
	}
	var spanBuf [1]timestamp.Interval
	var spans []timestamp.Interval
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		conf, frozen, ok := t.firstWriteOverLocked(owner, iv)
		if !ok {
			t.insertLiveLocked(entry{iv: iv, owner: owner, mode: ModeRead})
			return ReadResult{Got: iv}, nil
		}
		if frozen {
			res := ReadResult{Frozen: true, FrozenAt: conf}
			if !opts.Partial {
				return res, fmt.Errorf("read %v blocked at %v: %w", iv, conf, ErrFrozen)
			}
			res.Got = prefixBefore(iv, conf)
			t.insertLiveLocked(entry{iv: res.Got, owner: owner, mode: ModeRead})
			return res, nil
		}
		// Unfrozen conflict.
		if opts.Wait {
			if spans == nil {
				spanBuf[0] = iv
				spans = spanBuf[:]
			}
			t.blockerScratch = t.live.blockersForRead(owner, iv, t.blockerScratch[:0])
			if err := t.blockLocked(ctx, owner, ModeRead, t.blockerScratch, spans); err != nil {
				return ReadResult{}, err
			}
			continue
		}
		if opts.Partial {
			res := ReadResult{Got: prefixBefore(iv, conf)}
			t.insertLiveLocked(entry{iv: res.Got, owner: owner, mode: ModeRead})
			return res, nil
		}
		return ReadResult{}, fmt.Errorf("read %v blocked at %v: %w", iv, conf, ErrConflict)
	}
}

// AcquireWrite acquires write locks on the requested set of timestamps.
// Unlike reads, writes have no contiguity requirement (§3): with Partial
// set, every requested timestamp not blocked by a conflict is acquired.
func (t *Table) AcquireWrite(ctx context.Context, owner Owner, req timestamp.Set, opts Options) (WriteResult, error) {
	var res WriteResult
	err := t.AcquireWriteInto(ctx, owner, req, opts, &res)
	return res, err
}

// AcquireWriteInto is AcquireWrite reporting into a caller-provided
// result, whose previous contents are discarded and whose storage is
// reused. req must not share storage with any set of res — a caller that
// adopts res.Got as its next request swaps the two sets instead of
// assigning one to the other.
func (t *Table) AcquireWriteInto(ctx context.Context, owner Owner, req timestamp.Set, opts Options, res *WriteResult) error {
	res.Got.Reset()
	res.Denied.Reset()
	if req.IsEmpty() {
		return nil
	}
	var spanBuf [4]timestamp.Interval
	var spans []timestamp.Interval
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		res.frozenConf.Reset()
		if len(t.frozen.entries) > 0 {
			t.frozen.conflictsInto(owner, req, &res.frozenConf)
		}
		res.liveConf.Reset()
		if len(t.live.entries) > 0 {
			t.live.conflictsInto(owner, req, &res.liveConf)
		}
		if !res.liveConf.IsEmpty() && opts.Wait {
			if spans == nil {
				spans = req.AppendIntervals(spanBuf[:0])
			}
			t.blockerScratch = t.live.blockersForWrite(owner, req, t.blockerScratch[:0])
			if err := t.blockLocked(ctx, owner, ModeWrite, t.blockerScratch, spans); err != nil {
				return err
			}
			continue
		}
		res.Denied.SetUnion(res.frozenConf, res.liveConf)
		if !res.Denied.IsEmpty() && !opts.Partial {
			err := ErrConflict
			if !res.frozenConf.IsEmpty() {
				err = ErrFrozen
			}
			return fmt.Errorf("write %v blocked by %v: %w", req, res.Denied, err)
		}
		res.Got.SetSubtract(req, res.Denied)
		for i := 0; i < res.Got.NumIntervals(); i++ {
			t.insertLiveLocked(entry{iv: res.Got.At(i), owner: owner, mode: ModeWrite})
		}
		return nil
	}
}

// FreezeWriteAt freezes the owner's write lock at exactly ts, splitting
// the covering interval if needed. It reports whether a write lock of the
// owner covered ts. A commit freezes its write lock on the chosen commit
// timestamp before exposing the value (§4.3, Alg. 1 line 18).
func (t *Table) FreezeWriteAt(owner Owner, ts timestamp.Timestamp) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.live.writeAt(owner, ts)
	if i < 0 {
		return t.frozen.writeAt(owner, ts) >= 0
	}
	point := timestamp.Point(ts)
	below, above := t.live.entries[i].iv.Subtract(point)
	t.live.removeAt(i)
	t.insertFrozenLocked(entry{iv: point, owner: owner, mode: ModeWrite})
	t.insertLiveLocked(entry{iv: below, owner: owner, mode: ModeWrite})
	t.insertLiveLocked(entry{iv: above, owner: owner, mode: ModeWrite})
	// Only the frozen point changed state; waiters blocked on the
	// unfrozen remainder stay blocked.
	t.wakeOverlappingLocked(point)
	return true
}

// FreezeReadIn freezes the portions of the owner's read locks inside iv,
// as done by garbage collection after commit (Alg. 1 line 25).
func (t *Table) FreezeReadIn(owner Owner, iv timestamp.Interval) {
	if iv.IsEmpty() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		held, ok := t.live.takeLastReadIn(owner, iv)
		if !ok {
			return
		}
		frozenPart := held.Intersect(iv)
		below, above := held.Subtract(frozenPart)
		t.insertFrozenLocked(entry{iv: frozenPart, owner: owner, mode: ModeRead})
		t.insertLiveLocked(entry{iv: below, owner: owner, mode: ModeRead})
		t.insertLiveLocked(entry{iv: above, owner: owner, mode: ModeRead})
		// Writers parked on the now-frozen range must observe the
		// permanent denial.
		t.wakeOverlappingLocked(frozenPart)
	}
}

// ReleaseUnfrozen releases every unfrozen lock of the owner, in any mode
// (Alg. 1 line 26).
func (t *Table) ReleaseUnfrozen(owner Owner) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.releaseWhereLocked(owner, false)
}

// ReleaseWrites releases the owner's unfrozen write locks, used when a
// candidate commit timestamp fails and the policy moves on (Alg. 3
// line 22).
func (t *Table) ReleaseWrites(owner Owner) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.releaseWhereLocked(owner, true)
}

// ReleaseReadIn releases the portions of the owner's unfrozen read locks
// inside iv, used when a read retries after meeting a frozen write lock
// ("release read-locks acquired above", Alg. 3/4/8).
func (t *Table) ReleaseReadIn(owner Owner, iv timestamp.Interval) {
	if iv.IsEmpty() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		held, ok := t.live.takeLastReadIn(owner, iv)
		if !ok {
			return
		}
		below, above := held.Subtract(iv)
		t.insertLiveLocked(entry{iv: below, owner: owner, mode: ModeRead})
		t.insertLiveLocked(entry{iv: above, owner: owner, mode: ModeRead})
		t.wakeOverlappingLocked(held.Intersect(iv))
	}
}

// Owned returns the timestamps the owner currently holds: all locked
// timestamps (read or write) and the write-locked subset. The generic
// commit step intersects these across keys (Alg. 1 line 13).
func (t *Table) Owned(owner Owner) (readOrWrite, writeOnly timestamp.Set) {
	t.OwnedInto(owner, &readOrWrite, &writeOnly)
	return readOrWrite, writeOnly
}

// OwnedInto is Owned rebuilding the snapshots into caller-provided
// scratch sets, which are reset first. A commit loop threading the same
// pair through every key of its footprint reuses the sets' spilled
// storage and stops allocating once they have grown.
func (t *Table) OwnedInto(owner Owner, readOrWrite, writeOnly *timestamp.Set) {
	readOrWrite.Reset()
	writeOnly.Reset()
	t.mu.Lock()
	defer t.mu.Unlock()
	live, frozen := t.live.entries, t.frozen.entries
	if owner < t.frozenMinOwner || owner > t.frozenMaxOwner {
		frozen = nil
	}
	// Records are taken in start order — across both lists when the
	// owner may have history — so the in-place adds stay on the cheap
	// append/extend path.
	for i, j := 0, 0; i < len(live) || j < len(frozen); {
		var e *entry
		if j == len(frozen) || i < len(live) && live[i].iv.Lo.AtOrBefore(frozen[j].iv.Lo) {
			e = &live[i]
			i++
		} else {
			e = &frozen[j]
			j++
		}
		if e.owner != owner {
			continue
		}
		readOrWrite.AddInPlace(e.iv)
		if e.mode == ModeWrite {
			writeOnly.AddInPlace(e.iv)
		}
	}
}

// PurgeFrozenBelow drops frozen entries that lie entirely below ts,
// mirroring version purging (§6): once the versions below a bound are
// discarded, their lock state may be discarded too. It returns the number
// of entries removed.
//
// No waiters are woken: acquisitions only ever park on *unfrozen*
// conflicts, and purging removes only frozen records, so no parked
// acquisition's outcome can change.
func (t *Table) PurgeFrozenBelow(ts timestamp.Timestamp) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &t.frozen
	kept := l.entries[:0]
	removedAt := -1
	t.frozenMinOwner, t.frozenMaxOwner = 0, 0
	for i, e := range l.entries {
		if e.iv.Hi.Before(ts) {
			if removedAt < 0 {
				removedAt = i
			}
			continue
		}
		t.noteFrozenOwnerLocked(e.owner, len(kept) == 0)
		kept = append(kept, e)
	}
	removed := len(l.entries) - len(kept)
	l.entries = kept
	if removedAt >= 0 {
		l.reindex(removedAt)
	}
	return removed
}

// noteFrozenOwnerLocked widens the frozen list's owner bounds to cover
// owner; first says the list holds no other record.
func (t *Table) noteFrozenOwnerLocked(owner Owner, first bool) {
	if first || owner < t.frozenMinOwner {
		t.frozenMinOwner = owner
	}
	if first || owner > t.frozenMaxOwner {
		t.frozenMaxOwner = owner
	}
}

// Stats summarizes the table's lock state size.
type Stats struct {
	// Entries is the number of interval-compressed lock records.
	Entries int
	// Frozen is how many of them are frozen.
	Frozen int
}

// Stats returns the current state-size statistics.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Entries: len(t.live.entries) + len(t.frozen.entries), Frozen: len(t.frozen.entries)}
}

// EntryInfo is an exported view of one lock record, for tests and
// diagnostics.
type EntryInfo struct {
	Interval timestamp.Interval
	Owner    Owner
	Mode     Mode
	Frozen   bool
}

// Snapshot returns a copy of the lock records, sorted by interval start:
// the merge of the unfrozen and the frozen list.
func (t *Table) Snapshot() []EntryInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	live, frozen := t.live.entries, t.frozen.entries
	out := make([]EntryInfo, 0, len(live)+len(frozen))
	for i, j := 0, 0; i < len(live) || j < len(frozen); {
		if j == len(frozen) || i < len(live) && live[i].iv.Lo.AtOrBefore(frozen[j].iv.Lo) {
			out = append(out, EntryInfo{Interval: live[i].iv, Owner: live[i].owner, Mode: live[i].mode})
			i++
		} else {
			out = append(out, EntryInfo{Interval: frozen[j].iv, Owner: frozen[j].owner, Mode: frozen[j].mode, Frozen: true})
			j++
		}
	}
	return out
}

// Validate checks the table's core invariants — each list is sorted and
// carries its prefix-max index exactly when it is long enough to, the
// owner bounds cover every frozen record, and write locks are exclusive
// against locks of other owners within and across the lists — and
// returns an error describing the first violation. It is intended for
// tests.
func (t *Table) Validate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.live.validate(); err != nil {
		return fmt.Errorf("live list: %w", err)
	}
	if err := t.frozen.validate(); err != nil {
		return fmt.Errorf("frozen list: %w", err)
	}
	for i, e := range t.frozen.entries {
		if e.owner < t.frozenMinOwner || e.owner > t.frozenMaxOwner {
			return fmt.Errorf("frozen entry %d: owner %d outside the bounds [%d,%d]", i, e.owner, t.frozenMinOwner, t.frozenMaxOwner)
		}
	}
	all := append(append([]entry(nil), t.live.entries...), t.frozen.entries...)
	for i, a := range all {
		for _, b := range all[i+1:] {
			if a.owner == b.owner {
				continue
			}
			if a.mode == ModeRead && b.mode == ModeRead {
				continue
			}
			if a.iv.Overlaps(b.iv) {
				return fmt.Errorf("conflict between %v/%v(owner %d) and %v/%v(owner %d)",
					a.iv, a.mode, a.owner, b.iv, b.mode, b.owner)
			}
		}
	}
	return nil
}

// validate checks one list's order and index.
func (l *list) validate() error {
	wantIndex := 0
	if len(l.entries) > indexLen {
		wantIndex = len(l.entries)
	}
	if len(l.maxHi) != wantIndex {
		return fmt.Errorf("%d entries with an index of length %d, want %d", len(l.entries), len(l.maxHi), wantIndex)
	}
	var max timestamp.Timestamp
	for i, e := range l.entries {
		if e.iv.IsEmpty() {
			return fmt.Errorf("entry %d has empty interval", i)
		}
		if i > 0 && e.iv.Lo.Before(l.entries[i-1].iv.Lo) {
			return fmt.Errorf("entry %d starts before entry %d", i, i-1)
		}
		max = timestamp.Max(max, e.iv.Hi)
		if wantIndex > 0 && l.maxHi[i] != max {
			return fmt.Errorf("maxHi[%d] = %v, want %v", i, l.maxHi[i], max)
		}
	}
	return nil
}

// --- internals -------------------------------------------------------------

// waiterCount reports how many acquisitions are currently parked, for
// tests and benchmarks.
func (t *Table) waiterCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.waiters)
}

// wakeOverlappingLocked wakes and unlinks every parked waiter whose
// blocked-on spans overlap iv. Callers must hold t.mu. The signal send
// is non-blocking: the one-slot buffer can already be full when an
// external WaitGraph.Abort raced us, and the waiter is waking anyway —
// it rescans the whole table after any wake, so one signal covers both
// events.
func (t *Table) wakeOverlappingLocked(iv timestamp.Interval) {
	if iv.IsEmpty() || len(t.waiters) == 0 ||
		!iv.Overlaps(timestamp.Span(t.waitLo, t.waitHi)) {
		return
	}
	for i := 0; i < len(t.waiters); {
		w := t.waiters[i]
		if !w.overlaps(iv) {
			i++
			continue
		}
		w.done.Wake()
		t.unlinkWaiterAtLocked(i)
	}
}

// getWaiterLocked takes a waiter from the freelist (or allocates one)
// and stamps it with the request's identity. Callers hold t.mu.
func (t *Table) getWaiterLocked(owner Owner, mode Mode) *waiter {
	if n := len(t.free); n > 0 {
		w := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		w.owner, w.mode = owner, mode
		return w
	}
	// done buffers one wake so the waker can signal-and-unlink under
	// the table mutex without a rendezvous.
	if t.timers == nil {
		t.timers = clock.SystemTimers{}
	}
	return &waiter{owner: owner, mode: mode, done: t.timers.NewWaiter()}
}

// putWaiterLocked returns an unlinked waiter to the freelist, draining
// the wake signal a concurrent waker may have left in done (a waiter
// that timed out can be signalled between the context firing and the
// table mutex being reacquired). Callers hold t.mu.
func (t *Table) putWaiterLocked(w *waiter) {
	w.done.Drain()
	w.spans = w.spans[:0]
	if len(t.free) < maxFreeWaiters {
		t.free = append(t.free, w)
	}
}

// unlinkWaiterAtLocked removes the waiter at index i (order is not
// maintained). Callers must hold t.mu.
func (t *Table) unlinkWaiterAtLocked(i int) {
	t.waiters[i].linked = false
	last := len(t.waiters) - 1
	t.waiters[i] = t.waiters[last]
	t.waiters[last] = nil
	t.waiters = t.waiters[:last]
}

// removeWaiterLocked unlinks w if it is still parked (a concurrent wake
// may have unlinked it already). Callers must hold t.mu.
func (t *Table) removeWaiterLocked(w *waiter) {
	for i, x := range t.waiters {
		if x == w {
			t.unlinkWaiterAtLocked(i)
			return
		}
	}
}

// blockLocked registers the wait in the shared wait-for graph (failing
// fast on a cycle), parks the caller on a pooled waiter tagged with a
// copy of spans, and blocks until overlapping lock state changes, an
// external detector marks the waiter a deadlock victim, or the context
// expires. Callers hold t.mu; it is held again on return.
func (t *Table) blockLocked(ctx context.Context, owner Owner, mode Mode, holders []Owner, spans []timestamp.Interval) error {
	if t.graph != nil {
		if t.graph.consumeAbort(owner) {
			return ErrDeadlock
		}
		if err := t.graph.Wait(owner, holders, t.key); err != nil {
			return err
		}
		defer t.graph.Done(owner)
	}
	w := t.getWaiterLocked(owner, mode)
	w.spans = append(w.spans[:0], spans...)
	if len(t.waiters) == 0 {
		t.waitLo, t.waitHi = w.spans[0].Lo, w.spans[0].Hi
	}
	for _, s := range w.spans {
		t.waitLo = timestamp.Min(t.waitLo, s.Lo)
		t.waitHi = timestamp.Max(t.waitHi, s.Hi)
	}
	w.linked = true
	t.waiters = append(t.waiters, w)
	if t.graph != nil {
		t.graph.park(owner, w.done)
	}
	t.mu.Unlock()
	err := w.done.ParkCtx(ctx)
	t.mu.Lock()
	if t.graph != nil {
		t.graph.unpark(owner)
	}
	// A wake from WaitGraph.Abort does not unlink (the graph cannot
	// reach the table's waiter list); remove ourselves then. The
	// common table-waker wake already unlinked, so the O(waiters)
	// scan is skipped on the hot handoff path.
	if w.linked {
		t.removeWaiterLocked(w)
	}
	t.putWaiterLocked(w)
	if err != nil {
		return err
	}
	if t.graph != nil && t.graph.consumeAbort(owner) {
		return ErrDeadlock
	}
	return nil
}

// blockersForRead appends the owners of the list's write locks
// conflicting with a read of iv to dst.
func (l *list) blockersForRead(owner Owner, iv timestamp.Interval, dst []Owner) []Owner {
	lo, hi := l.window(iv)
	for i := lo; i < hi; i++ {
		e := &l.entries[i]
		if e.owner != owner && e.mode == ModeWrite && e.iv.Overlaps(iv) {
			dst = append(dst, e.owner)
		}
	}
	return dst
}

// blockersForWrite appends the owners of the list's locks conflicting
// with a write of req to dst. Owners holding several conflicting records
// may appear more than once; the wait-for graph deduplicates.
func (l *list) blockersForWrite(owner Owner, req timestamp.Set, dst []Owner) []Owner {
	for r := 0; r < req.NumIntervals(); r++ {
		riv := req.At(r)
		lo, hi := l.window(riv)
		for i := lo; i < hi; i++ {
			e := &l.entries[i]
			if e.owner != owner && e.iv.Overlaps(riv) {
				dst = append(dst, e.owner)
			}
		}
	}
	return dst
}

// firstWriteOverLocked returns the interval of the write lock of another
// owner that overlaps iv and starts first — what a read of iv conflicts
// with first — and whether it is frozen. When an unfrozen and a frozen
// one start together, the unfrozen one is reported. Callers hold t.mu.
func (t *Table) firstWriteOverLocked(owner Owner, iv timestamp.Interval) (conf timestamp.Interval, frozen, ok bool) {
	if len(t.live.entries) > 0 {
		conf, ok = t.live.firstWriteOver(owner, iv)
	}
	if len(t.frozen.entries) > 0 {
		if f, fok := t.frozen.firstWriteOver(owner, iv); fok && (!ok || f.Lo.Before(conf.Lo)) {
			return f, true, true
		}
	}
	return conf, false, ok
}

// firstWriteOver is the list's part of firstWriteOverLocked. Entries are
// sorted by start, so the first match in index order is the answer.
func (l *list) firstWriteOver(owner Owner, iv timestamp.Interval) (timestamp.Interval, bool) {
	lo, hi := l.window(iv)
	for i := lo; i < hi; i++ {
		e := &l.entries[i]
		if e.owner != owner && e.mode == ModeWrite && e.iv.Overlaps(iv) {
			return e.iv, true
		}
	}
	return timestamp.Empty, false
}

// conflictsInto adds to dst the timestamps of req covered by the list's
// records of other owners: what a write of req conflicts with. Within a
// request interval the overlaps come in start order, so the in-place
// adds stay on the cheap append/extend path.
func (l *list) conflictsInto(owner Owner, req timestamp.Set, dst *timestamp.Set) {
	for r := 0; r < req.NumIntervals(); r++ {
		riv := req.At(r)
		lo, hi := l.window(riv)
		for i := lo; i < hi; i++ {
			e := &l.entries[i]
			if e.owner == owner {
				continue
			}
			if x := riv.Intersect(e.iv); !x.IsEmpty() {
				dst.AddInPlace(x)
			}
		}
	}
}

// writeAt returns the index of the owner's write lock covering ts, or -1.
func (l *list) writeAt(owner Owner, ts timestamp.Timestamp) int {
	lo, hi := l.window(timestamp.Point(ts))
	for i := lo; i < hi; i++ {
		e := &l.entries[i]
		if e.owner == owner && e.mode == ModeWrite && e.iv.Contains(ts) {
			return i
		}
	}
	return -1
}

// prefixBefore returns the part of iv strictly before the conflicting
// interval conf (empty when conf starts at or before iv.Lo).
func prefixBefore(iv, conf timestamp.Interval) timestamp.Interval {
	if conf.Lo.AtOrBefore(iv.Lo) {
		return timestamp.Empty
	}
	return timestamp.Interval{Lo: iv.Lo, Hi: timestamp.Min(iv.Hi, conf.Lo.Prev())}
}

// window returns the half-open index window [lo, hi) of entries that may
// overlap q; entries inside it still need an Overlaps check. A list too
// short to carry the index is its own window.
func (l *list) window(q timestamp.Interval) (lo, hi int) {
	if hi = len(l.entries); hi > indexLen {
		lo, hi = l.indexedWindow(q)
	}
	return lo, hi
}

// indexedWindow is window over the index: entries before lo all end
// below q.Lo (their prefix max end is too small) and entries from hi on
// all start above q.Hi. It is apart so that window's short-list case
// inlines into the scans.
func (l *list) indexedWindow(q timestamp.Interval) (int, int) {
	n := len(l.entries)
	lo := sort.Search(n, func(i int) bool { return l.maxHi[i].AtOrAfter(q.Lo) })
	hi := sort.Search(n, func(i int) bool { return l.entries[i].iv.Lo.After(q.Hi) })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// reindex repairs the prefix-max index after the entries from position
// pos on changed: recomputed from there while the list is long enough to
// carry one (from the start when it had none), dropped when it is not.
func (l *list) reindex(pos int) {
	n := len(l.entries)
	if n <= indexLen {
		l.maxHi = l.maxHi[:0]
		return
	}
	if len(l.maxHi) == 0 {
		pos = 0
	}
	if cap(l.maxHi) < n {
		l.maxHi = slices.Grow(l.maxHi, n-len(l.maxHi))
	}
	l.maxHi = l.maxHi[:n]
	for i := pos; i < n; i++ {
		h := l.entries[i].iv.Hi
		if i > 0 && l.maxHi[i-1].After(h) {
			h = l.maxHi[i-1]
		}
		l.maxHi[i] = h
	}
}

// insert adds a record, merging it with the owner's adjacent or
// overlapping records of the same mode in the list (interval
// compression, §6), and returns the interval of the merged record. The
// list stays sorted by interval start.
func (l *list) insert(e entry) timestamp.Interval {
	// Merge with compatible neighbours. The candidate window is widened
	// by one tick on each side to catch adjacency; records of the same
	// (owner, mode) class are mutually non-adjacent by this very
	// invariant, so merged growth cannot reach entries outside the
	// window.
	lo, hi := l.window(timestamp.Span(e.iv.Lo.Prev(), e.iv.Hi.Next()))
	for i := hi - 1; i >= lo; i-- {
		o := &l.entries[i]
		if o.owner == e.owner && o.mode == e.mode && (o.iv.Overlaps(e.iv) || o.iv.Adjacent(e.iv)) {
			e.iv = e.iv.Merge(o.iv)
			l.removeAt(i)
		}
	}
	pos := sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].iv.Lo.AtOrAfter(e.iv.Lo)
	})
	if l.entries == nil {
		l.entries = make([]entry, 0, initialCap)
	}
	l.entries = append(l.entries, entry{})
	copy(l.entries[pos+1:], l.entries[pos:])
	l.entries[pos] = e
	l.reindex(pos)
	return e.iv
}

// removeAt deletes the record at index i, preserving order.
func (l *list) removeAt(i int) {
	copy(l.entries[i:], l.entries[i+1:])
	l.entries = l.entries[:len(l.entries)-1]
	l.reindex(i)
}

// takeLastReadIn removes the owner's read lock overlapping iv that
// starts last, and returns the interval it held. The freeze and release
// paths split the owner's unfrozen read locks around iv one record at a
// time, from the top down: what each split puts back into the list lies
// outside iv, so it is never taken again.
func (l *list) takeLastReadIn(owner Owner, iv timestamp.Interval) (timestamp.Interval, bool) {
	lo, hi := l.window(iv)
	for i := hi - 1; i >= lo; i-- {
		e := &l.entries[i]
		if e.owner == owner && e.mode == ModeRead && e.iv.Overlaps(iv) {
			held := e.iv
			l.removeAt(i)
			return held, true
		}
	}
	return timestamp.Empty, false
}

// insertLiveLocked adds an unfrozen record (an empty one is ignored) and
// extends the wait-for edges of the waiters it blocks. Callers hold t.mu.
func (t *Table) insertLiveLocked(e entry) {
	if e.iv.IsEmpty() {
		return
	}
	e.iv = t.live.insert(e)
	t.extendWaiterEdgesLocked(e)
}

// insertFrozenLocked adds a frozen record (an empty one is ignored).
// Waiters are not told: the freeze paths wake the overlapping ones
// themselves. Callers hold t.mu.
func (t *Table) insertFrozenLocked(e entry) {
	if e.iv.IsEmpty() {
		return
	}
	t.noteFrozenOwnerLocked(e.owner, len(t.frozen.entries) == 0)
	t.frozen.insert(e)
}

// extendWaiterEdgesLocked keeps deadlock detection current under
// targeted wakeups: a newly inserted unfrozen lock that conflicts with a
// *parked* waiter's request adds a wait-for edge the waiter could not
// have registered when it parked (under the old broadcast scheme the
// waiter was woken by every table change and re-registered its blockers
// itself). The edge is registered on the waiter's behalf without waking
// it; if the new edge closes a cycle, the waiter is woken so it re-runs
// its blocked acquisition and observes ErrDeadlock. Callers hold t.mu.
func (t *Table) extendWaiterEdgesLocked(e entry) {
	if t.graph == nil || len(t.waiters) == 0 ||
		!e.iv.Overlaps(timestamp.Span(t.waitLo, t.waitHi)) {
		return
	}
	holder := [1]Owner{e.owner}
	for i := 0; i < len(t.waiters); {
		w := t.waiters[i]
		if w.owner == e.owner || (e.mode == ModeRead && w.mode == ModeRead) || !w.overlaps(e.iv) {
			i++
			continue
		}
		if t.graph.Wait(w.owner, holder[:], t.key) == nil {
			i++
			continue
		}
		w.done.Wake()
		t.unlinkWaiterAtLocked(i)
	}
}

// releaseWhereLocked removes the owner's unfrozen records — only the
// write locks when writesOnly is set — and wakes the waiters overlapping
// each removed interval. Records before the first removal stay where
// they are; only the ones behind it are moved down. Callers hold t.mu.
func (t *Table) releaseWhereLocked(owner Owner, writesOnly bool) {
	l := &t.live
	removedAt := -1
	n := 0
	for i := range l.entries {
		e := &l.entries[i]
		if e.owner == owner && (!writesOnly || e.mode == ModeWrite) {
			if removedAt < 0 {
				removedAt = i
			}
			t.wakeOverlappingLocked(e.iv)
			continue
		}
		if removedAt >= 0 {
			l.entries[n] = *e
		}
		n++
	}
	if removedAt >= 0 {
		l.entries = l.entries[:n]
		l.reindex(removedAt)
	}
}
