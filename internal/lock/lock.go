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
// distinctly (ErrFrozen).
//
// # Performance model
//
// A table also keeps its key's committed versions, a version.List, under
// the same mutex as its lock records. So a read picks its version and
// locks above it, and a commit installs its version and freezes its
// write lock, each in one critical section (Alg. 1's atomic block); a
// trim drops versions and lock records together. A read at "now" finds
// its version at the head of the chain, one step.
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
//   - a trim and the frozen half of a conflict scan touch only frozen
//     (a trim reads live's first record, for its bound), and Stats reads
//     two lengths;
//   - a conflict scan (AcquireRead's first conflict, AcquireWrite's
//     conflict sets) looks at both, live first;
//   - OwnedInto walks live, and merges history in only when the owner
//     filter below lets it.
//
// History grows with versions, not with reads, one record per version.
// A frozen read range has no owner: FreezeReadIn hands it to the
// reserved owner anonymous, whoever froze it. All reads of one version
// freeze ranges starting just above it, so they join that version's
// write point in one record of the frozen list: [v, h] says the write is
// frozen at v for its owner and reads are frozen on (v, h] for nobody.
// A key's frozen list thus holds one record per committed version,
// whatever the number of readers. A bare anonymous range is left only
// where no single version point lies right below it: over ⊥, as the
// frozen past a trim leaves (from Zero, over the points it dropped), or
// above several adjacent points of one owner (one transaction
// committing twice on a key, which no policy does).
// The union of frozen timestamps is what it would be with one record per
// reader, and every answer per timestamp is what it would be with the
// write point and the range as two records — a read meets the record at
// v only, a write meets all of it but its owner's own point — so no
// conflict answer changes; only the readers' names are forgotten, and a
// reader that freezes is finishing on the key (see FreezeReadIn).
//
// Past indexLen records a list also carries a running prefix maximum of
// interval ends (maxHi, monotone, so it can be binary searched): a scan
// narrows to the window [first record whose prefix-max end reaches the
// query, first record starting past the query) in O(log n) and walks only
// that, O(log n + k) for k candidates. A list of at most indexLen records
// has no index and is scanned whole, which is faster than two binary
// searches and spares every cold key the index's allocation; a list's
// record slice starts at capacity initialCap, so that a cold key's one
// or two records cost one allocation per list. With one frozen record
// per version, a key's history needs no index until it keeps more than
// indexLen versions, and its record slice doubles once per doubling of
// versions. Structural updates (insert, remove) are O(n) in the list
// they change, from the slice copy and the index repair behind it.
//
// The table knows the smallest and the largest named owner in its frozen
// list — the frozen writes' and versions' owners, since frozen reads are
// anonymous — widened by every write freeze and recomputed by every
// trim. An owner outside those bounds has no frozen record — as a
// filter the bounds are exact — and OwnedInto then never reads history. Transaction ids
// grow with time, so a transaction that has not frozen anything on the
// key yet is usually above the bounds; one that falls inside them
// without a record (a younger transaction froze first) pays one
// O(frozen) merge walk.
//
// Blocked acquisitions park on a per-waiter channel tagged with the
// intervals the waiter is blocked on. A release or freeze wakes
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
	"github.com/lpd-epfl/mvtl/internal/version"
)

// Owner identifies a lock holder (a transaction). Owner 0 is reserved.
type Owner uint64

// anonymous owns every frozen read range: what a finishing reader froze
// is history that no transaction answers for (see FreezeReadIn). No
// transaction has this id.
const anonymous Owner = 0

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

// modeVersion marks a frozen record that stands for a committed version
// and the reads frozen above it: its owner's write is frozen at iv.Lo,
// and reads are frozen for nobody on (iv.Lo, iv.Hi], which is never
// empty. It lives only in the frozen list, and Snapshot renders it as
// the write point and the anonymous read range it replaces.
const modeVersion = ModeWrite + 1

// entry is one interval-compressed lock record. It has no frozen bit:
// the list that holds it says whether it is frozen.
type entry struct {
	iv    timestamp.Interval
	owner Owner
	mode  Mode
}

// writes returns the timestamps the record write-locks for its owner:
// all of a write record, the point of a version, none of a read.
func (e *entry) writes() timestamp.Interval {
	switch e.mode {
	case ModeWrite:
		return e.iv
	case modeVersion:
		return timestamp.Point(e.iv.Lo)
	default:
		return timestamp.Empty
	}
}

// readsAbove returns a version's frozen reads, (iv.Lo, iv.Hi].
func (e *entry) readsAbove() timestamp.Interval {
	return timestamp.Span(e.iv.Lo.Next(), e.iv.Hi)
}

// deniesWrite returns the timestamps of the record that a write by
// owner conflicts with: all of another owner's record, and the frozen
// reads above the owner's own version.
func (e *entry) deniesWrite(owner Owner) timestamp.Interval {
	switch {
	case e.owner != owner:
		return e.iv
	case e.mode == modeVersion:
		return e.readsAbove()
	default:
		return timestamp.Empty
	}
}

// appendInfo appends the records e stands for to dst: a version as its
// write point and the anonymous read range above it.
func (e *entry) appendInfo(dst []EntryInfo, frozen bool) []EntryInfo {
	if e.mode != modeVersion {
		return append(dst, EntryInfo{Interval: e.iv, Owner: e.owner, Mode: e.mode, Frozen: frozen})
	}
	return append(dst,
		EntryInfo{Interval: e.writes(), Owner: e.owner, Mode: ModeWrite, Frozen: true},
		EntryInfo{Interval: e.readsAbove(), Owner: anonymous, Mode: ModeRead, Frozen: true})
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

// Table is the freezable interval lock table for one key, and the key's
// version history. The zero value is not ready for use; call NewTable.
type Table struct {
	mu sync.Mutex
	// versions is the key's committed history: a chain of versions,
	// newest first, whose nodes come from the arena the table was made
	// with. ⊥ takes no node; it is present until the first trim that
	// drops it. Its floor is the table's: a read picked at or below it
	// fails with version.ErrPurged.
	versions version.List
	// live holds the unfrozen records, frozen the frozen ones.
	live, frozen list
	// frozenMinOwner and frozenMaxOwner are the smallest and the largest
	// named owner of the records in frozen; both are anonymous while it
	// holds no named record.
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

// NewKeyTable returns the table of a keyspace's key: it participates in
// the shared wait-for graph g, and its edges are labelled with key, so
// graph snapshots exported for cross-server deadlock detection name the
// key each waiter blocks on. Parked waiters use the wake slots of
// timeline t, so the fault bed can expire lock waits by virtual-time
// jump; a nil t means SystemTimers. Its version nodes come from arena a.
func NewKeyTable(g *WaitGraph, key string, t clock.Timers, a *version.Arena) *Table {
	return &Table{graph: g, key: key, timers: t, versions: version.ListIn(a)}
}

// AcquireRead acquires read locks on a contiguous interval starting at
// iv.Lo, following the semantics of the paper's read-locks step (§4.3):
// the interval must begin immediately after the version being read, so a
// partial acquisition keeps the *prefix* before the first conflict. It
// is the lock half of Read, for a caller that knows what lies below iv.
func (t *Table) AcquireRead(ctx context.Context, owner Owner, iv timestamp.Interval, opts Options) (ReadResult, error) {
	if iv.IsEmpty() {
		return ReadResult{Got: timestamp.Empty}, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if res, parked, err := t.acquireReadLocked(ctx, owner, iv, opts); !parked || err != nil {
			return res, err
		}
	}
}

// Read is the read step (Alg. 8 lines 4-11; Alg. 13,
// receive-read-lock-message), in one critical section: it picks the
// latest committed version v below pick and read-locks, for owner, the
// interval from just after v up to upper — parking on unfrozen write
// locks when wait is set (bounded by ctx), taking the contiguous prefix
// it can get otherwise. got is the interval locked, possibly a strict
// prefix of the request, possibly empty.
//
// A frozen write met on the way up stands for a version installed with
// it, at or above pick, so v is the version of every point below it, and
// the prefix is kept. After a park the step picks again: whoever it
// waited for may have committed a newer version below pick.
func (t *Table) Read(ctx context.Context, owner Owner, pick, upper timestamp.Timestamp, wait bool) (v version.Version, got timestamp.Interval, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if v, err = t.versions.LatestBefore(pick); err != nil {
			return version.Version{}, timestamp.Empty, err
		}
		iv := timestamp.Span(v.TS.Next(), upper)
		if iv.IsEmpty() {
			return v, timestamp.Empty, nil
		}
		res, parked, err := t.acquireReadLocked(ctx, owner, iv, Options{Wait: wait, Partial: true})
		if err != nil {
			return version.Version{}, timestamp.Empty, err
		}
		if !parked {
			return v, res.Got, nil
		}
	}
}

// acquireReadLocked is one attempt of AcquireRead for a caller holding
// t.mu, on a non-empty iv: it locks iv, or what opts let it take, and
// returns — or it parks until overlapping lock state changes and reports
// parked, for the caller to try again.
func (t *Table) acquireReadLocked(ctx context.Context, owner Owner, iv timestamp.Interval, opts Options) (res ReadResult, parked bool, err error) {
	conf, frozen, ok := t.firstWriteOverLocked(owner, iv)
	switch {
	case !ok:
		t.insertLiveLocked(entry{iv: iv, owner: owner, mode: ModeRead})
		return ReadResult{Got: iv}, false, nil
	case frozen:
		if !opts.Partial {
			return ReadResult{}, false, fmt.Errorf("read %v blocked at %v: %w", iv, conf, ErrFrozen)
		}
	case opts.Wait:
		spans := [1]timestamp.Interval{iv}
		t.blockerScratch = t.live.blockersForRead(owner, iv, t.blockerScratch[:0])
		return ReadResult{}, true, t.blockLocked(ctx, owner, ModeRead, t.blockerScratch, spans[:])
	case !opts.Partial:
		return ReadResult{}, false, fmt.Errorf("read %v blocked at %v: %w", iv, conf, ErrConflict)
	}
	res.Got = prefixBefore(iv, conf)
	t.insertLiveLocked(entry{iv: res.Got, owner: owner, mode: ModeRead})
	return res, false, nil
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
// the covering interval if needed, and installs nothing: it is the lock
// half of Commit (Alg. 1 line 18). It reports whether a write lock of
// the owner covered ts.
func (t *Table) FreezeWriteAt(owner Owner, ts timestamp.Timestamp) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.freezeWriteAtLocked(owner, ts)
}

// Commit is Alg. 1's atomic block (lines 18-19) on the table's key: in
// one critical section it installs value at ts, freezes owner's write
// lock there, and trims the key below bound (see Trim) when there is
// history to drop — a frozen write below the lowered bound. So no read
// meets the frozen write without its version, and a key keeps what was
// written since bound, not its whole run. fresh reports whether the
// version is new: a second commit of the same version finds it
// installed and frozen, and changes nothing. A commit fails, and changes
// nothing, when owner holds no write lock at ts, or when ts is at or
// below the floor.
func (t *Table) Commit(owner Owner, ts timestamp.Timestamp, value []byte, bound timestamp.Timestamp) (fresh bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live.writeAt(owner, ts) < 0 && t.frozen.writeAt(owner, ts) < 0 {
		return false, fmt.Errorf("commit at %v: owner %d holds no write lock there", ts, owner)
	}
	switch err = t.versions.Install(ts, value); {
	case err == nil:
		fresh = true
	case !errors.Is(err, version.ErrExists):
		return false, err
	}
	t.freezeWriteAtLocked(owner, ts)
	t.trimLocked(bound, false)
	return fresh, nil
}

// Install exposes value at ts and touches no lock: a standby applies its
// head's committed versions this way (version.List.Install).
func (t *Table) Install(ts timestamp.Timestamp, value []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.versions.Install(ts, value)
}

// VersionSnapshot returns a copy of the key's history, oldest first.
func (t *Table) VersionSnapshot() []version.Version {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.versions.Snapshot()
}

// freezeWriteAtLocked is FreezeWriteAt for a caller holding t.mu.
func (t *Table) freezeWriteAtLocked(owner Owner, ts timestamp.Timestamp) bool {
	i := t.live.writeAt(owner, ts)
	if i < 0 {
		return t.frozen.writeAt(owner, ts) >= 0
	}
	point := timestamp.Point(ts)
	below, above := t.live.entries[i].iv.Subtract(point)
	t.live.removeAt(i)
	t.freezeWriteLocked(owner, ts)
	t.insertLiveLocked(entry{iv: below, owner: owner, mode: ModeWrite})
	t.insertLiveLocked(entry{iv: above, owner: owner, mode: ModeWrite})
	// Only the frozen point changed state; waiters blocked on the
	// unfrozen remainder stay blocked.
	t.wakeOverlappingLocked(point)
	return true
}

// FreezeReadIn freezes the portions of the owner's read locks inside iv,
// as done by garbage collection after commit (Alg. 1 line 25).
//
// Its caller is finishing on this key: it has frozen its writes here and
// releases what stays unfrozen next, as a commit does. What it freezes
// is history, not the owner's lock: the frozen range becomes anonymous
// and joins the version record it overlaps or touches from above — the
// version the owner read — or else merges with the key's bare frozen
// read ranges, so Owned no longer reports it and the owner's own writes
// would now conflict with it. The points where the owner holds a frozen
// write — its commit point — are left out of the range: they are frozen
// against everyone else already.
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
		t.insertFrozenReadLocked(owner, frozenPart)
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

// Owned returns the timestamps the owner currently holds: all locked
// timestamps (read or write) and the write-locked subset. The generic
// commit step intersects these across keys (Alg. 1 line 13). Frozen
// reads are anonymous, so they count for no owner.
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
		if e.mode == ModeRead {
			readOrWrite.AddInPlace(e.iv)
			continue
		}
		readOrWrite.AddInPlace(e.writes())
		writeOnly.AddInPlace(e.writes())
	}
}

// Trim drops the key's history below bound (§6, §8.1) and returns how
// many versions and lock records went; a version record counts as
// Snapshot renders it, its point and its reads. It is the one trim:
// Commit runs it, and purges run it on every key.
//
//   - The bound first falls to the start of the oldest unfrozen record:
//     a trim never passes a transaction that still holds a lock here, so
//     no write lock of a running transaction lies below it.
//   - The versions below the bound go but the newest one, whose
//     timestamp becomes the floor: a read picked at or below it fails
//     with version.ErrPurged.
//   - The frozen records wholly below the bound go. One that reaches
//     across it keeps what lies at or above it: a version its reads, a
//     write range its points from the bound on.
//   - What went becomes one anonymous frozen read range from Zero up to
//     the bound, merged with the reads it touches. No write can land
//     below a trim, and no read is refused by one.
//
// A trim with nothing to drop — no frozen write below the bound, and no
// version besides the newest — changes nothing. No waiters are woken:
// acquisitions park only on unfrozen records, which all lie above the
// bound, and none of them goes.
func (t *Table) Trim(bound timestamp.Timestamp) (versions, locks int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trimLocked(bound, true)
}

// PurgeFrozenBelow is Trim reporting only the number of lock records it
// dropped.
func (t *Table) PurgeFrozenBelow(ts timestamp.Timestamp) int {
	_, locks := t.Trim(ts)
	return locks
}

// trimLocked is Trim for a caller holding t.mu. Unless always is set it
// walks the versions only when a frozen write lies below the lowered
// bound: a committed version comes with its frozen write, so a commit
// has versions to drop only then.
func (t *Table) trimLocked(bound timestamp.Timestamp, always bool) (versions, locks int) {
	if len(t.live.entries) > 0 {
		bound = timestamp.Min(bound, t.live.entries[0].iv.Lo)
	}
	if !bound.After(timestamp.Zero) {
		return 0, 0
	}
	written := t.frozen.namedBelow(bound)
	if !written && !always {
		return 0, 0
	}
	versions = t.versions.Trim(bound)
	if !written && versions == 0 {
		return 0, 0
	}
	locks = t.frozen.trimBelow(bound)
	t.frozenMinOwner, t.frozenMaxOwner = anonymous, anonymous
	for i := range t.frozen.entries {
		t.noteFrozenOwnerLocked(t.frozen.entries[i].owner)
	}
	return versions, locks
}

// noteFrozenOwnerLocked widens the frozen list's owner bounds to cover
// owner, unless it is anonymous. Named owners are never anonymous, so a
// minimum that is says the list holds no other named record.
func (t *Table) noteFrozenOwnerLocked(owner Owner) {
	if owner == anonymous {
		return
	}
	first := t.frozenMinOwner == anonymous
	if first || owner < t.frozenMinOwner {
		t.frozenMinOwner = owner
	}
	if first || owner > t.frozenMaxOwner {
		t.frozenMaxOwner = owner
	}
}

// Stats summarizes the table's state size.
type Stats struct {
	// Entries is the number of interval-compressed lock records the
	// table stores; a version record counts once.
	Entries int
	// Frozen is how many of them are frozen.
	Frozen int
	// Versions is the number of versions the key holds, ⊥ included
	// while it is.
	Versions int
}

// Stats returns the current state-size statistics.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Entries: len(t.live.entries) + len(t.frozen.entries), Frozen: len(t.frozen.entries), Versions: t.versions.Count()}
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
// the merge of the unfrozen and the frozen list, each version record
// rendered as its write point and the anonymous read range above it.
func (t *Table) Snapshot() []EntryInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// snapshotLocked is Snapshot for callers that hold t.mu.
func (t *Table) snapshotLocked() []EntryInfo {
	live, frozen := t.live.entries, t.frozen.entries
	dst := make([]EntryInfo, 0, len(live)+2*len(frozen))
	for i, j := 0, 0; i < len(live) || j < len(frozen); {
		if j == len(frozen) || i < len(live) && live[i].iv.Lo.AtOrBefore(frozen[j].iv.Lo) {
			dst = live[i].appendInfo(dst, false)
			i++
		} else {
			dst = frozen[j].appendInfo(dst, true)
			j++
		}
	}
	return dst
}

// Validate checks the table's core invariants — each list is sorted and
// carries its prefix-max index exactly when it is long enough to; live
// records are named reads and writes; a frozen record is anonymous
// exactly when it is a bare read range, and a version's read range is
// never empty; the owner bounds cover every named frozen record; frozen
// records are disjoint and merged as far as they can be — no bare range
// overlaps or touches from above a version or a one-point write, which
// it would have joined, and no write of one owner touches another of its
// own; every frozen write point has its version in the key's history
// (versions without a lock, as a standby keeps them, are legal); and
// write locks are exclusive against locks of other owners within and
// across the lists, as Snapshot renders them — and returns an error
// describing the first violation. It is intended for tests.
func (t *Table) Validate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.live.validate(); err != nil {
		return fmt.Errorf("live list: %w", err)
	}
	if err := t.frozen.validate(); err != nil {
		return fmt.Errorf("frozen list: %w", err)
	}
	for i, e := range t.live.entries {
		if e.owner == anonymous || e.mode == modeVersion {
			return fmt.Errorf("live entry %d: %v/%v of owner %d, want a named read or write", i, e.iv, e.mode, e.owner)
		}
	}
	for i, e := range t.frozen.entries {
		if (e.owner == anonymous) != (e.mode == ModeRead) {
			return fmt.Errorf("frozen entry %d: %v/%v of owner %d, want bare reads and only they anonymous", i, e.iv, e.mode, e.owner)
		}
		if e.mode == modeVersion && e.iv.Lo == e.iv.Hi {
			return fmt.Errorf("frozen entry %d: version %v of owner %d has no reads", i, e.iv, e.owner)
		}
		if e.owner != anonymous && (e.owner < t.frozenMinOwner || e.owner > t.frozenMaxOwner) {
			return fmt.Errorf("frozen entry %d: owner %d outside the bounds [%d,%d]", i, e.owner, t.frozenMinOwner, t.frozenMaxOwner)
		}
		if w := e.writes(); !w.IsEmpty() {
			for p := w.Lo; ; p = p.Next() {
				if v, err := t.versions.LatestBefore(p.Next()); err != nil || v.TS != p {
					return fmt.Errorf("frozen entry %d: owner %d's write at %v has no version", i, e.owner, p)
				}
				if p == w.Hi {
					break
				}
			}
		}
		if i == 0 {
			continue
		}
		p := &t.frozen.entries[i-1]
		switch {
		case !p.iv.Hi.Before(e.iv.Lo):
			return fmt.Errorf("frozen entries %d and %d overlap: %v/%v and %v/%v", i-1, i, p.iv, p.mode, e.iv, e.mode)
		case p.iv.Hi.Next() != e.iv.Lo:
		case e.mode == ModeRead && (p.mode != ModeWrite || p.iv.Lo == p.iv.Hi):
			return fmt.Errorf("frozen reads %v not merged with the %v/%v below them", e.iv, p.iv, p.mode)
		case e.mode != ModeRead && p.mode == ModeWrite && p.owner == e.owner:
			return fmt.Errorf("frozen writes %v and %v of owner %d not merged", p.iv, e.writes(), e.owner)
		}
	}
	all := t.snapshotLocked()
	for i, a := range all {
		for _, b := range all[i+1:] {
			if a.Owner == b.Owner {
				continue
			}
			if a.Mode == ModeRead && b.Mode == ModeRead {
				continue
			}
			if a.Interval.Overlaps(b.Interval) {
				return fmt.Errorf("conflict between %v/%v(owner %d) and %v/%v(owner %d)",
					a.Interval, a.Mode, a.Owner, b.Interval, b.Mode, b.Owner)
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

// blockLocked parks the caller on a pooled waiter tagged with a copy of
// spans until overlapping lock state changes, an external detector marks
// the waiter a deadlock victim, or the context expires. Two graph calls
// bracket the park: block fails fast on a victim mark or a cycle and
// otherwise registers the wait-for edges and the wake slot together;
// unblock clears both and reports a mark that arrived while parked.
// Callers hold t.mu; it is held again on return.
func (t *Table) blockLocked(ctx context.Context, owner Owner, mode Mode, holders []Owner, spans []timestamp.Interval) error {
	w := t.getWaiterLocked(owner, mode)
	if t.graph != nil {
		if err := t.graph.block(owner, holders, t.key, w.done); err != nil {
			t.putWaiterLocked(w)
			return err
		}
	}
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
	t.mu.Unlock()
	err := w.done.ParkCtx(ctx)
	t.mu.Lock()
	victim := t.graph != nil && t.graph.unblock(owner)
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
	if victim {
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
		conf, ok = t.live.firstWriteOver(owner, false, iv)
	}
	if len(t.frozen.entries) > 0 {
		if f, fok := t.frozen.firstWriteOver(owner, false, iv); fok && (!ok || f.Lo.Before(conf.Lo)) {
			return f, true, true
		}
	}
	return conf, false, ok
}

// firstWriteOver returns the write-locked interval of the list's record
// that overlaps iv and starts first, among other owners' records, or
// among owner's own when mine is set; for a version that is its point.
// Entries are sorted by start, so the first match in index order is the
// answer.
func (l *list) firstWriteOver(owner Owner, mine bool, iv timestamp.Interval) (timestamp.Interval, bool) {
	lo, hi := l.window(iv)
	for i := lo; i < hi; i++ {
		e := &l.entries[i]
		if (e.owner == owner) == mine && e.writes().Overlaps(iv) {
			return e.writes(), true
		}
	}
	return timestamp.Empty, false
}

// conflictsInto adds to dst the timestamps of req that the list's
// records deny a write by owner: what a write of req conflicts with.
// Within a request interval the overlaps come in start order, so the
// in-place adds stay on the cheap append/extend path.
func (l *list) conflictsInto(owner Owner, req timestamp.Set, dst *timestamp.Set) {
	for r := 0; r < req.NumIntervals(); r++ {
		riv := req.At(r)
		lo, hi := l.window(riv)
		for i := lo; i < hi; i++ {
			if x := riv.Intersect(l.entries[i].deniesWrite(owner)); !x.IsEmpty() {
				dst.AddInPlace(x)
			}
		}
	}
}

// writeAt returns the index of the owner's record write-locking ts, or
// -1.
func (l *list) writeAt(owner Owner, ts timestamp.Timestamp) int {
	lo, hi := l.window(timestamp.Point(ts))
	for i := lo; i < hi; i++ {
		e := &l.entries[i]
		if e.owner == owner && e.writes().Contains(ts) {
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
	e = l.merge(e)
	l.insertAt(l.search(e.iv.Lo), e)
	return e.iv
}

// merge removes the records of e's owner and mode that overlap or touch
// e and returns e widened over them. The candidate window is widened by
// one tick on each side to catch adjacency; records of the same (owner,
// mode) class are mutually non-adjacent by this very invariant, so
// merged growth cannot reach entries outside the window.
func (l *list) merge(e entry) entry {
	lo, hi := l.window(timestamp.Span(e.iv.Lo.Prev(), e.iv.Hi.Next()))
	for i := hi - 1; i >= lo; i-- {
		o := &l.entries[i]
		if o.owner == e.owner && o.mode == e.mode && (o.iv.Overlaps(e.iv) || o.iv.Adjacent(e.iv)) {
			e.iv = e.iv.Merge(o.iv)
			l.removeAt(i)
		}
	}
	return e
}

// search returns the index of the first record starting at or after ts.
func (l *list) search(ts timestamp.Timestamp) int {
	return sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].iv.Lo.AtOrAfter(ts)
	})
}

// insertAt puts e at index pos, which must keep the list sorted.
func (l *list) insertAt(pos int, e entry) {
	if l.entries == nil {
		l.entries = make([]entry, 0, initialCap)
	}
	l.entries = append(l.entries, entry{})
	copy(l.entries[pos+1:], l.entries[pos:])
	l.entries[pos] = e
	l.reindex(pos)
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

// freezeWriteLocked adds the owner's frozen write at ts to the frozen
// list, unless the owner has one there already. It merges with the
// owner's frozen writes it touches; a version of the owner right above
// gives its point to the merged writes and keeps its reads as a bare
// range, and a single point takes in the bare range right above it, so
// becoming a version. Waiters are not told: FreezeWriteAt wakes the
// overlapping ones itself. Callers hold t.mu.
func (t *Table) freezeWriteLocked(owner Owner, ts timestamp.Timestamp) {
	l := &t.frozen
	if l.writeAt(owner, ts) >= 0 {
		return
	}
	t.noteFrozenOwnerLocked(owner)
	e := l.merge(entry{iv: timestamp.Point(ts), owner: owner, mode: ModeWrite})
	pos := l.search(e.iv.Lo)
	if pos < len(l.entries) && l.entries[pos].iv.Lo == e.iv.Hi.Next() {
		switch above := &l.entries[pos]; {
		case above.owner == owner && above.mode == modeVersion:
			e.iv.Hi = above.iv.Lo
			*above = entry{iv: above.readsAbove(), owner: anonymous, mode: ModeRead}
		case above.owner == anonymous && e.iv.Lo == e.iv.Hi:
			*above = entry{iv: timestamp.Span(e.iv.Lo, above.iv.Hi), owner: owner, mode: modeVersion}
			return
		}
	}
	l.insertAt(pos, e)
}

// insertFrozenReadLocked adds iv to the anonymous frozen read history,
// less the points where owner holds a frozen write. Callers hold t.mu.
func (t *Table) insertFrozenReadLocked(owner Owner, iv timestamp.Interval) {
	for !iv.IsEmpty() {
		w, ok := t.frozen.firstWriteOver(owner, true, iv)
		if !ok {
			t.frozen.freezeReads(iv)
			return
		}
		var below timestamp.Interval
		below, iv = iv.Subtract(w)
		t.frozen.freezeReads(below)
	}
}

// freezeReads adds the anonymous frozen reads r, which holds no frozen
// write, to the list. It merges r with the bare ranges it overlaps or
// touches; the result joins the version right below it if it overlaps or
// touches that version's reads, or turns a single write point it touches
// into a version, and stays a bare range otherwise — over ⊥, as a
// trim's frozen past, or above several points of one owner.
func (l *list) freezeReads(r timestamp.Interval) {
	if r.IsEmpty() {
		return
	}
	e := l.merge(entry{iv: r, owner: anonymous, mode: ModeRead})
	pos := l.search(e.iv.Lo)
	if pos > 0 {
		below := &l.entries[pos-1]
		single := below.mode == ModeWrite && below.iv.Lo == below.iv.Hi
		if (single || below.mode == modeVersion) && below.iv.Hi.Next().AtOrAfter(e.iv.Lo) {
			below.iv.Hi = timestamp.Max(below.iv.Hi, e.iv.Hi)
			below.mode = modeVersion
			l.reindex(pos - 1)
			return
		}
	}
	l.insertAt(pos, e)
}

// namedBelow reports whether a record starting below bound has an
// owner: a version or a frozen write, where bare reads have none.
func (l *list) namedBelow(bound timestamp.Timestamp) bool {
	for i := range l.entries {
		e := &l.entries[i]
		if !e.iv.Lo.Before(bound) {
			return false
		}
		if e.owner != anonymous {
			return true
		}
	}
	return false
}

// trimBelow makes the frozen list anonymous frozen reads below bound
// (see Table.Trim) and returns the number of rendered records it
// dropped: those wholly below bound, and the point of a version whose
// reads reach across it.
func (l *list) trimBelow(bound timestamp.Timestamp) (removed int) {
	n := l.search(bound)
	hi := bound.Prev()
	var cut entry // a write range across bound, from bound on
	for i := range n {
		switch e := &l.entries[i]; {
		case e.iv.Hi.Before(bound):
			removed++
			if e.mode == modeVersion {
				removed++
			}
		case e.mode == ModeWrite:
			cut = entry{iv: timestamp.Span(bound, e.iv.Hi), owner: e.owner, mode: ModeWrite}
		default:
			if e.mode == modeVersion {
				removed++
			}
			hi = e.iv.Hi
		}
	}
	l.entries = append(l.entries[:0], l.entries[n:]...)
	l.reindex(0)
	if cut.owner != anonymous {
		// What is left starts above the cut. A single point takes in the
		// bare reads right above it, as freezeWriteLocked's does.
		if len(l.entries) > 0 && cut.iv.Lo == cut.iv.Hi {
			if above := &l.entries[0]; above.owner == anonymous && above.iv.Lo == cut.iv.Hi.Next() {
				*above = entry{iv: timestamp.Span(cut.iv.Lo, above.iv.Hi), owner: cut.owner, mode: modeVersion}
				cut.owner = anonymous
			}
		}
		if cut.owner != anonymous {
			l.insertAt(0, cut)
		}
	}
	l.freezeReads(timestamp.Span(timestamp.Zero, hi))
	return removed
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
