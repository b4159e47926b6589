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
// The entries slice is kept sorted by interval start and augmented with a
// running prefix maximum of interval ends (maxHi, which is monotone, so
// it can be binary searched). Every conflict scan — first conflict,
// conflict partitioning, blocker collection, freeze and targeted release
// — narrows the slice to the candidate index window [first entry whose
// prefix-max end reaches the query, first entry starting past the query)
// in O(log n) and walks only that window: O(log n + k) per scan for k
// candidates, where the previous implementation walked all n entries.
// Structural updates (insert, remove) were already O(n) from the slice
// copy; maintaining maxHi adds a second O(n) pass, leaving their
// complexity unchanged.
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

// WriteResult reports the outcome of AcquireWrite.
type WriteResult struct {
	// Got is the set of write-locked timestamps acquired (it may have
	// holes when Partial is set). When nothing was denied it may share
	// storage with the request set, so callers must not mutate it in
	// place.
	Got timestamp.Set
	// Denied is the subset of the request that conflicts prevented,
	// intersected with the request.
	Denied timestamp.Set
}

// entry is one interval-compressed lock record.
type entry struct {
	iv     timestamp.Interval
	owner  Owner
	mode   Mode
	frozen bool
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
	mu      sync.Mutex
	entries []entry // sorted by iv.Lo
	// maxHi[i] is the maximum iv.Hi over entries[0..i]. It is monotone
	// non-decreasing, so binary search finds the first index whose
	// prefix can still overlap a query interval.
	maxHi []timestamp.Timestamp
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

// NewTableKeyed returns a lock table participating in the shared
// wait-for graph g whose edges are labelled with key, so graph
// snapshots exported for cross-server deadlock detection name the key
// each waiter blocks on.
func NewTableKeyed(g *WaitGraph, key string) *Table {
	return &Table{graph: g, key: key}
}

// NewTableKeyedTimers is NewTableKeyed on an explicit timeline: parked
// waiters use the timeline's wake slots, so the fault bed can expire
// lock waits by virtual-time jump. A nil t means SystemTimers.
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
		conf, ok := t.firstConflictLocked(owner, iv, ModeRead)
		if !ok {
			t.insertLocked(entry{iv: iv, owner: owner, mode: ModeRead})
			return ReadResult{Got: iv}, nil
		}
		if conf.frozen {
			res := ReadResult{Frozen: true, FrozenAt: conf.iv}
			if !opts.Partial {
				return res, fmt.Errorf("read %v blocked at %v: %w", iv, conf.iv, ErrFrozen)
			}
			res.Got = prefixBefore(iv, conf.iv)
			if !res.Got.IsEmpty() {
				t.insertLocked(entry{iv: res.Got, owner: owner, mode: ModeRead})
			}
			return res, nil
		}
		// Unfrozen conflict.
		if opts.Wait {
			if spans == nil {
				spanBuf[0] = iv
				spans = spanBuf[:]
			}
			t.blockerScratch = t.blockersForReadLocked(owner, iv, t.blockerScratch[:0])
			if err := t.blockLocked(ctx, owner, ModeRead, t.blockerScratch, spans); err != nil {
				return ReadResult{}, err
			}
			continue
		}
		if opts.Partial {
			res := ReadResult{Got: prefixBefore(iv, conf.iv)}
			if !res.Got.IsEmpty() {
				t.insertLocked(entry{iv: res.Got, owner: owner, mode: ModeRead})
			}
			return res, nil
		}
		return ReadResult{}, fmt.Errorf("read %v blocked at %v: %w", iv, conf.iv, ErrConflict)
	}
}

// AcquireWrite acquires write locks on the requested set of timestamps.
// Unlike reads, writes have no contiguity requirement (§3): with Partial
// set, every requested timestamp not blocked by a conflict is acquired.
func (t *Table) AcquireWrite(ctx context.Context, owner Owner, req timestamp.Set, opts Options) (WriteResult, error) {
	if req.IsEmpty() {
		return WriteResult{}, nil
	}
	var spanBuf [4]timestamp.Interval
	var spans []timestamp.Interval
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		frozenConf, unfrozenConf := t.conflictSetsLocked(owner, req, ModeWrite)
		if !unfrozenConf.IsEmpty() && opts.Wait {
			if spans == nil {
				spans = req.AppendIntervals(spanBuf[:0])
			}
			t.blockerScratch = t.blockersForWriteLocked(owner, req, t.blockerScratch[:0])
			if err := t.blockLocked(ctx, owner, ModeWrite, t.blockerScratch, spans); err != nil {
				return WriteResult{}, err
			}
			continue
		}
		denied := frozenConf
		denied.UnionInPlace(unfrozenConf)
		if !denied.IsEmpty() && !opts.Partial {
			err := ErrConflict
			if !frozenConf.IsEmpty() {
				err = ErrFrozen
			}
			return WriteResult{Denied: denied}, fmt.Errorf("write %v blocked by %v: %w", req, denied, err)
		}
		got := req
		got.SubtractInto(denied)
		for i := 0; i < got.NumIntervals(); i++ {
			t.insertLocked(entry{iv: got.At(i), owner: owner, mode: ModeWrite})
		}
		return WriteResult{Got: got, Denied: denied}, nil
	}
}

// FreezeWriteAt freezes the owner's write lock at exactly ts, splitting
// the covering interval if needed. It reports whether a write lock of the
// owner covered ts. A commit freezes its write lock on the chosen commit
// timestamp before exposing the value (§4.3, Alg. 1 line 18).
func (t *Table) FreezeWriteAt(owner Owner, ts timestamp.Timestamp) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	point := timestamp.Point(ts)
	lo, hi := t.overlapRangeLocked(point)
	for i := lo; i < hi; i++ {
		e := t.entries[i]
		if e.owner != owner || e.mode != ModeWrite || !e.iv.Contains(ts) {
			continue
		}
		if e.frozen {
			return true
		}
		below, above := e.iv.Subtract(point)
		t.removeAtLocked(i)
		t.insertLocked(entry{iv: point, owner: owner, mode: ModeWrite, frozen: true})
		t.insertLocked(entry{iv: below, owner: owner, mode: ModeWrite})
		t.insertLocked(entry{iv: above, owner: owner, mode: ModeWrite})
		// Only the frozen point changed state; waiters blocked on the
		// unfrozen remainder stay blocked.
		t.wakeOverlappingLocked(point)
		return true
	}
	return false
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
		held, ok := t.takeLastReadInLocked(owner, iv)
		if !ok {
			return
		}
		frozenPart := held.Intersect(iv)
		below, above := held.Subtract(frozenPart)
		t.insertLocked(entry{iv: frozenPart, owner: owner, mode: ModeRead, frozen: true})
		t.insertLocked(entry{iv: below, owner: owner, mode: ModeRead})
		t.insertLocked(entry{iv: above, owner: owner, mode: ModeRead})
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
		held, ok := t.takeLastReadInLocked(owner, iv)
		if !ok {
			return
		}
		below, above := held.Subtract(iv)
		t.insertLocked(entry{iv: below, owner: owner, mode: ModeRead})
		t.insertLocked(entry{iv: above, owner: owner, mode: ModeRead})
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
	// Entries are sorted by start, so the in-place adds stay on the
	// cheap append/extend path.
	for i := range t.entries {
		e := &t.entries[i]
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
	kept := t.entries[:0]
	removed := 0
	removedAt := -1
	for i, e := range t.entries {
		if e.frozen && e.iv.Hi.Before(ts) {
			if removedAt < 0 {
				removedAt = i
			}
			removed++
			continue
		}
		kept = append(kept, e)
	}
	t.entries = kept
	if removedAt >= 0 {
		t.fixMaxHiFrom(removedAt)
	}
	return removed
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
	s := Stats{Entries: len(t.entries)}
	for _, e := range t.entries {
		if e.frozen {
			s.Frozen++
		}
	}
	return s
}

// EntryInfo is an exported view of one lock record, for tests and
// diagnostics.
type EntryInfo struct {
	Interval timestamp.Interval
	Owner    Owner
	Mode     Mode
	Frozen   bool
}

// Snapshot returns a copy of the lock records, sorted by interval start.
func (t *Table) Snapshot() []EntryInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]EntryInfo, len(t.entries))
	for i, e := range t.entries {
		out[i] = EntryInfo{Interval: e.iv, Owner: e.owner, Mode: e.mode, Frozen: e.frozen}
	}
	return out
}

// Validate checks the table's core invariants — write locks are exclusive
// against locks of other owners, entries are sorted, and the prefix-max
// index matches the entries — and returns an error describing the first
// violation. It is intended for tests.
func (t *Table) Validate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var max timestamp.Timestamp
	for i, a := range t.entries {
		if a.iv.IsEmpty() {
			return fmt.Errorf("entry %d has empty interval", i)
		}
		if i > 0 && a.iv.Lo.Before(t.entries[i-1].iv.Lo) {
			return fmt.Errorf("entry %d starts before entry %d", i, i-1)
		}
		max = timestamp.Max(max, a.iv.Hi)
		if len(t.maxHi) != len(t.entries) {
			return fmt.Errorf("maxHi length %d != entries length %d", len(t.maxHi), len(t.entries))
		}
		if t.maxHi[i] != max {
			return fmt.Errorf("maxHi[%d] = %v, want %v", i, t.maxHi[i], max)
		}
		for _, b := range t.entries[i+1:] {
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

// blockersForReadLocked appends the owners of unfrozen write locks
// conflicting with a read of iv to dst. Callers hold t.mu.
func (t *Table) blockersForReadLocked(owner Owner, iv timestamp.Interval, dst []Owner) []Owner {
	lo, hi := t.overlapRangeLocked(iv)
	for i := lo; i < hi; i++ {
		e := &t.entries[i]
		if e.owner != owner && e.mode == ModeWrite && !e.frozen && e.iv.Overlaps(iv) {
			dst = append(dst, e.owner)
		}
	}
	return dst
}

// blockersForWriteLocked appends the owners of unfrozen locks
// conflicting with a write of req to dst. Callers hold t.mu. Owners
// holding several conflicting records may appear more than once; the
// wait-for graph deduplicates.
func (t *Table) blockersForWriteLocked(owner Owner, req timestamp.Set, dst []Owner) []Owner {
	for r := 0; r < req.NumIntervals(); r++ {
		riv := req.At(r)
		lo, hi := t.overlapRangeLocked(riv)
		for i := lo; i < hi; i++ {
			e := &t.entries[i]
			if e.owner != owner && !e.frozen && e.iv.Overlaps(riv) {
				dst = append(dst, e.owner)
			}
		}
	}
	return dst
}

// firstConflictLocked returns the conflicting entry with the smallest
// start that overlaps iv, from the perspective of an acquisition in the
// given mode by the given owner. Entries are sorted by start, so the
// first overlapping entry in index order is the answer.
func (t *Table) firstConflictLocked(owner Owner, iv timestamp.Interval, mode Mode) (entry, bool) {
	lo, hi := t.overlapRangeLocked(iv)
	for i := lo; i < hi; i++ {
		e := &t.entries[i]
		if e.owner == owner || !e.iv.Overlaps(iv) {
			continue
		}
		if mode == ModeRead && e.mode == ModeRead {
			continue
		}
		return *e, true
	}
	return entry{}, false
}

// conflictSetsLocked partitions the timestamps of req that conflict with
// other owners' locks into frozen and unfrozen sets, for a write-mode
// acquisition.
func (t *Table) conflictSetsLocked(owner Owner, req timestamp.Set, mode Mode) (frozen, unfrozen timestamp.Set) {
	for r := 0; r < req.NumIntervals(); r++ {
		riv := req.At(r)
		lo, hi := t.overlapRangeLocked(riv)
		for i := lo; i < hi; i++ {
			e := &t.entries[i]
			if e.owner == owner {
				continue
			}
			if mode == ModeRead && e.mode == ModeRead {
				continue
			}
			x := riv.Intersect(e.iv)
			if x.IsEmpty() {
				continue
			}
			if e.frozen {
				frozen.AddInPlace(x)
			} else {
				unfrozen.AddInPlace(x)
			}
		}
	}
	return frozen, unfrozen
}

// prefixBefore returns the part of iv strictly before the conflicting
// interval conf (empty when conf starts at or before iv.Lo).
func prefixBefore(iv, conf timestamp.Interval) timestamp.Interval {
	if conf.Lo.AtOrBefore(iv.Lo) {
		return timestamp.Empty
	}
	return timestamp.Interval{Lo: iv.Lo, Hi: timestamp.Min(iv.Hi, conf.Lo.Prev())}
}

// overlapRangeLocked returns the half-open index window [lo, hi) of
// entries that may overlap q: entries before lo all end below q.Lo
// (their prefix max end is too small) and entries from hi on all start
// above q.Hi. Entries inside the window still need an Overlaps check.
// Callers hold t.mu.
func (t *Table) overlapRangeLocked(q timestamp.Interval) (int, int) {
	n := len(t.entries)
	if n == 0 || q.IsEmpty() {
		return 0, 0
	}
	lo := sort.Search(n, func(i int) bool { return t.maxHi[i].AtOrAfter(q.Lo) })
	hi := sort.Search(n, func(i int) bool { return t.entries[i].iv.Lo.After(q.Hi) })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// fixMaxHiFrom recomputes the prefix-max index from position pos to the
// end, resizing it to match the entries slice. Callers hold t.mu.
func (t *Table) fixMaxHiFrom(pos int) {
	n := len(t.entries)
	if cap(t.maxHi) < n {
		grown := make([]timestamp.Timestamp, n, 2*n+4)
		copy(grown, t.maxHi)
		t.maxHi = grown
	} else {
		t.maxHi = t.maxHi[:n]
	}
	if pos < 0 {
		pos = 0
	}
	for i := pos; i < n; i++ {
		h := t.entries[i].iv.Hi
		if i > 0 && t.maxHi[i-1].After(h) {
			h = t.maxHi[i-1]
		}
		t.maxHi[i] = h
	}
}

// insertLocked adds a record, merging it with the owner's adjacent or
// overlapping records of the same mode and frozen state (interval
// compression, §6). The entries slice stays sorted by interval start.
func (t *Table) insertLocked(e entry) {
	if e.iv.IsEmpty() {
		return
	}
	// Merge with compatible neighbours. The candidate window is widened
	// by one tick on each side to catch adjacency; records of the same
	// (owner, mode, frozen) class are mutually non-adjacent by this very
	// invariant, so merged growth cannot reach entries outside the
	// window.
	q := timestamp.Span(e.iv.Lo.Prev(), e.iv.Hi.Next())
	lo, hi := t.overlapRangeLocked(q)
	for i := hi - 1; i >= lo; i-- {
		o := t.entries[i]
		if o.owner == e.owner && o.mode == e.mode && o.frozen == e.frozen &&
			(o.iv.Overlaps(e.iv) || o.iv.Adjacent(e.iv)) {
			e.iv = e.iv.Merge(o.iv)
			t.removeAtLocked(i)
		}
	}
	pos := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].iv.Lo.AtOrAfter(e.iv.Lo)
	})
	t.entries = append(t.entries, entry{})
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = e
	t.fixMaxHiFrom(pos)
	t.extendWaiterEdgesLocked(e)
}

// extendWaiterEdgesLocked keeps deadlock detection current under
// targeted wakeups: a newly inserted lock that conflicts with a *parked*
// waiter's request adds a wait-for edge the waiter could not have
// registered when it parked (under the old broadcast scheme the waiter
// was woken by every table change and re-registered its blockers
// itself). The edge is registered on the waiter's behalf without waking
// it; if the new edge closes a cycle, the waiter is woken so it re-runs
// its blocked acquisition and observes ErrDeadlock. Frozen inserts are
// skipped — the freeze paths wake overlapping waiters anyway. Callers
// hold t.mu.
func (t *Table) extendWaiterEdgesLocked(e entry) {
	if t.graph == nil || e.frozen || len(t.waiters) == 0 ||
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

// removeAtLocked deletes the record at index i, preserving order.
func (t *Table) removeAtLocked(i int) {
	copy(t.entries[i:], t.entries[i+1:])
	t.entries = t.entries[:len(t.entries)-1]
	t.fixMaxHiFrom(i)
}

// takeLastReadInLocked removes the owner's unfrozen read lock overlapping
// iv that starts last, and returns the interval it held. The freeze and
// release paths split the owner's read locks around iv one record at a
// time, from the top down: what each split puts back is frozen or lies
// outside iv, so it is never taken again.
func (t *Table) takeLastReadInLocked(owner Owner, iv timestamp.Interval) (timestamp.Interval, bool) {
	lo, hi := t.overlapRangeLocked(iv)
	for i := hi - 1; i >= lo; i-- {
		e := &t.entries[i]
		if e.owner == owner && e.mode == ModeRead && !e.frozen && e.iv.Overlaps(iv) {
			held := e.iv
			t.removeAtLocked(i)
			return held, true
		}
	}
	return timestamp.Empty, false
}

// releaseWhereLocked removes the owner's unfrozen records — only the
// write locks when writesOnly is set — and wakes the waiters overlapping
// each removed interval. Records before the first removal stay where
// they are; only the ones behind it are moved down.
func (t *Table) releaseWhereLocked(owner Owner, writesOnly bool) {
	removedAt := -1
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.owner == owner && !e.frozen && (!writesOnly || e.mode == ModeWrite) {
			if removedAt < 0 {
				removedAt = i
			}
			t.wakeOverlappingLocked(e.iv)
			continue
		}
		if removedAt >= 0 {
			t.entries[n] = *e
		}
		n++
	}
	if removedAt >= 0 {
		t.entries = t.entries[:n]
		t.fixMaxHiFrom(removedAt)
	}
}
