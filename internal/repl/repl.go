// Package repl is the replication layer for partitioned MVTL clusters:
// each partition becomes a small replica chain whose head serializes
// all lock/freeze/decide traffic and streams committed version installs
// down-chain through the wire package's bulk-transfer family (snapshot
// chunks + log tail).
//
// The membership authority is deliberately tiny — a Director holding
// one epoch-stamped View per partition. Coordinators cache views and
// stamp every mutating request with the view's epoch; servers reject
// mismatches with wire.StatusWrongEpoch, so a promotion fences every
// coordinator still routing to the old head (the epoch pattern of
// bounded-timestamp membership constructions: authority small, data
// path fat). The Director itself is not replicated — in this repo it is
// embedded in the cluster harness; a production deployment would put it
// on its own consensus group.
package repl

import (
	"fmt"
	"slices"
	"sync"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// View is one partition's membership as of an epoch: the serving head
// and the standbys behind it, in chain order.
type View struct {
	// Epoch increments on every membership change; 0 is never a valid
	// replicated epoch (coordinators use 0 for "unreplicated").
	Epoch uint64
	// Head is the address serving the partition's traffic.
	Head string
	// Standbys are the warm replicas, first in line first.
	Standbys []string
}

// Director is the membership authority: one epoch-stamped View per
// partition. All methods are safe for concurrent use.
type Director struct {
	mu    sync.Mutex
	views []View
}

// NewDirector builds a director over the initial chains: chains[p][0]
// is partition p's head, the rest its standbys. Every partition starts
// at epoch 1.
func NewDirector(chains [][]string) *Director {
	d := &Director{views: make([]View, len(chains))}
	for p, chain := range chains {
		v := View{Epoch: 1, Head: chain[0]}
		v.Standbys = append(v.Standbys, chain[1:]...)
		d.views[p] = v
	}
	return d
}

// Partitions returns the number of partitions directed.
func (d *Director) Partitions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.views)
}

// View returns partition p's current membership. The slice header is
// shared; callers must not mutate Standbys.
func (d *Director) View(p int) View {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.views[p]
}

// Promote makes partition p's first standby the head under a new epoch
// and returns the new view. The old head is dropped from the chain (its
// lock state died with it; it can rejoin as a fresh standby via
// AddStandby). Fails if the partition has no standby to promote.
func (d *Director) Promote(p int) (View, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.views[p]
	if len(v.Standbys) == 0 {
		return View{}, fmt.Errorf("repl: partition %d has no standby to promote", p)
	}
	next := View{Epoch: v.Epoch + 1, Head: v.Standbys[0]}
	next.Standbys = append(next.Standbys, v.Standbys[1:]...)
	d.views[p] = next
	return next, nil
}

// AddStandby appends addr to partition p's chain (a freshly joined,
// catching-up replica) and returns the updated view. Membership gains
// do not fence coordinators, so the epoch is unchanged. An address the
// view already lists, as head or standby, is not listed again: a chain
// naming a server twice would promote it with itself as its standby.
func (d *Director) AddStandby(p int, addr string) View {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.views[p]
	if v.Head == addr || slices.Contains(v.Standbys, addr) {
		return v
	}
	next := View{Epoch: v.Epoch, Head: v.Head}
	next.Standbys = append(next.Standbys, v.Standbys...)
	next.Standbys = append(next.Standbys, addr)
	d.views[p] = next
	return next
}

// Record is one replicated version install: a transaction committed
// Value to Key at timestamp TS. LSN orders installs per partition.
type Record struct {
	LSN   uint64
	Key   string
	TS    timestamp.Timestamp
	Value []byte
}

// DefaultLogCap bounds a partition log's retained records; older
// records are trimmed and pulls from before the trim point are answered
// with "snapshot needed".
const DefaultLogCap = 1 << 16

// Log is one replica's partition log: the LSN-ordered sequence of
// committed version installs. Heads append as they install; standbys
// append the records they pull, at the head's LSNs, so a promoted
// standby can serve catch-up to the next joiner without a gap. All
// methods are safe for concurrent use.
type Log struct {
	mu sync.Mutex
	// start is recs[0]'s LSN. A fresh log starts at 1; a snapshot-joined
	// replica starts wherever its first pulled record lands.
	start uint64
	recs  []Record
	cap   int
}

// NewLog returns an empty log retaining at most capacity records
// (DefaultLogCap if capacity is 0).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCap
	}
	return &Log{start: 1, cap: capacity}
}

// Append assigns the next LSN to a head-side install and returns it.
// Value is retained as-is; the caller must pass an owned copy.
func (l *Log) Append(key string, ts timestamp.Timestamp, value []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.start + uint64(len(l.recs))
	l.recs = append(l.recs, Record{LSN: lsn, Key: key, TS: ts, Value: value})
	l.trimLocked()
	return lsn
}

// AppendAt installs a pulled record at the head's LSN on a standby's
// log. Records at or below the current tail are duplicates of the
// snapshot/tail overlap and are dropped; a gap above the tail reports
// an error (the pull loop re-syncs via snapshot). An empty log adopts
// the record's LSN as its start, which is how a snapshot-joined replica
// anchors its log mid-stream.
func (l *Log) AppendAt(lsn uint64, key string, ts timestamp.Timestamp, value []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.start + uint64(len(l.recs))
	if len(l.recs) == 0 {
		l.start = lsn
		next = lsn
	}
	if lsn < next {
		return nil
	}
	if lsn > next {
		return fmt.Errorf("repl: log gap: have next %d, got %d", next, lsn)
	}
	l.recs = append(l.recs, Record{LSN: lsn, Key: key, TS: ts, Value: value})
	l.trimLocked()
	return nil
}

// Reset discards the log's contents; the next AppendAt re-anchors it.
// Standbys reset before (re-)snapshotting: the records between the old
// tail and the new snapshot's watermark were never pulled, and the log
// must stay contiguous to serve From.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.start = 1
	l.recs = l.recs[:0]
}

// trimLocked drops the oldest records beyond the retention cap.
func (l *Log) trimLocked() {
	if over := len(l.recs) - l.cap; over > 0 {
		l.start += uint64(over)
		l.recs = append(l.recs[:0], l.recs[over:]...)
	}
}

// NextLSN returns the next LSN this log would assign (1 + the tail's
// LSN; equal to start on an empty log).
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start + uint64(len(l.recs))
}

// From appends up to max records starting at LSN from to dst and
// returns it, plus the log's next LSN and whether from predates the
// retained window (the puller must snapshot first). The returned
// records share the log's backing; callers must not mutate them.
func (l *Log) From(dst []Record, from uint64, max int) (out []Record, next uint64, trimmed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = l.start + uint64(len(l.recs))
	if from < l.start {
		return dst, next, true
	}
	if from >= next {
		return dst, next, false
	}
	i := int(from - l.start)
	n := len(l.recs) - i
	if max > 0 && n > max {
		n = max
	}
	return append(dst, l.recs[i:i+n]...), next, false
}
