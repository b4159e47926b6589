package lock

import (
	"sync"

	"github.com/lpd-epfl/mvtl/internal/clock"
)

// ErrDeadlock reports that blocking on a lock would close a cycle in the
// wait-for graph, or that an external deadlock detector chose this
// waiter as the victim of a cross-server cycle; the requester should
// abort its transaction instead of waiting (§4.3: "standard techniques
// for deadlock detection can be used to abort the required transactions
// (e.g., cycle detection in the wait-for graph, timeout)"). Timeouts
// remain the backstop for waits nothing else sees.
var ErrDeadlock = deadlockError{}

// deadlockError is a distinct sentinel type so errors.Is works on values.
type deadlockError struct{}

func (deadlockError) Error() string { return "lock: deadlock detected" }

// WaitEdge is one exported wait-for edge: Waiter blocks on a lock held
// by Holder, on the table labelled Key. Coordinators merge the edges of
// several servers into a global graph (cross-server deadlock detection);
// Key routes a victim abort back to the server where the victim parks.
type WaitEdge struct {
	Waiter, Holder Owner
	Key            string
}

// WaitGraph is a wait-for graph over lock owners, shared by all lock
// tables of one store. One mutex guards all of it: the edges, the wake
// slots of parked acquisitions and the victim marks. A wait searches for
// a cycle through its new edges and publishes them in one critical
// section, so of several waits racing to close a cycle exactly one
// fails with ErrDeadlock — the last to take the mutex — and the others
// stay registered. The zero value is not ready; use NewWaitGraph.
//
// Local detection cannot see cycles spanning several servers, so the
// graph additionally supports an external detector: Edges snapshots the
// current wait-for edges (each labelled with the key of the blocking
// table) for export over the wire, and Abort marks a waiter as a
// deadlock victim from outside, waking its parked acquisition so it
// returns ErrDeadlock instead of sleeping out the lock-wait timeout.
type WaitGraph struct {
	mu sync.Mutex
	// edges[w][h] is the key label of the table where w waits for h.
	edges map[Owner]map[Owner]string
	// parked[w] is the wake slot of w's currently parked acquisition,
	// registered by block so Abort can wake it.
	parked map[Owner]clock.Waiter
	// aborted marks waiters chosen as deadlock victims from outside;
	// block and unblock consume the mark.
	aborted map[Owner]struct{}
}

// NewWaitGraph returns an empty graph.
func NewWaitGraph() *WaitGraph {
	return &WaitGraph{
		edges:   make(map[Owner]map[Owner]string),
		parked:  make(map[Owner]clock.Waiter),
		aborted: make(map[Owner]struct{}),
	}
}

// Wait registers that waiter blocks on holders (on the table labelled
// key) and reports ErrDeadlock if doing so closes a cycle; in that case
// nothing is registered and the waiter should abort. Done clears the
// registration. Tables call Wait only on behalf of a parked waiter
// (Table.extendWaiterEdgesLocked), whose unblock clears it, so Wait
// leaves victim marks alone: they belong to the waiter's own block and
// unblock.
func (g *WaitGraph) Wait(waiter Owner, holders []Owner, key string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waitLocked(waiter, holders, key)
}

// waitLocked is Wait for a caller holding g.mu.
func (g *WaitGraph) waitLocked(waiter Owner, holders []Owner, key string) error {
	if len(holders) == 0 {
		return nil
	}
	if g.reaches(holders, waiter) {
		return ErrDeadlock
	}
	set, ok := g.edges[waiter]
	if !ok {
		set = make(map[Owner]string, len(holders))
		g.edges[waiter] = set
	}
	for _, h := range holders {
		set[h] = key
	}
	return nil
}

// block is the parking acquisition's half of Wait: it fails with
// ErrDeadlock on a victim mark (consuming it) or on a cycle, and
// otherwise registers the edges and the wake slot w together, so an
// Abort from then on wakes the waiter. Tables call it with the table
// mutex held; g.mu nests inside it. Every successful block is paired
// with an unblock.
func (g *WaitGraph) block(waiter Owner, holders []Owner, key string, w clock.Waiter) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.aborted[waiter]; ok {
		delete(g.aborted, waiter)
		return ErrDeadlock
	}
	if err := g.waitLocked(waiter, holders, key); err != nil {
		return err
	}
	g.parked[waiter] = w
	return nil
}

// unblock clears the waiter's edges and wake slot and reports, consuming
// it, a victim mark that arrived while the waiter was parked. Once it
// returns, Abort no longer touches the wake slot, so the table may
// recycle it.
func (g *WaitGraph) unblock(waiter Owner) (victim bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.edges, waiter)
	delete(g.parked, waiter)
	_, victim = g.aborted[waiter]
	delete(g.aborted, waiter)
	return victim
}

// Done clears every edge out of waiter.
func (g *WaitGraph) Done(waiter Owner) {
	g.mu.Lock()
	delete(g.edges, waiter)
	g.mu.Unlock()
}

// Waiters returns the number of owners currently blocked, for
// monitoring.
func (g *WaitGraph) Waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.edges)
}

// Edges appends a snapshot of the current wait-for edges to dst and
// returns it.
func (g *WaitGraph) Edges(dst []WaitEdge) []WaitEdge {
	g.mu.Lock()
	defer g.mu.Unlock()
	for w, hs := range g.edges {
		for h, key := range hs {
			dst = append(dst, WaitEdge{Waiter: w, Holder: h, Key: key})
		}
	}
	return dst
}

// IsWaiting reports whether o currently has outgoing wait-for edges or a
// parked acquisition, used to validate external victim aborts against a
// possibly stale remote snapshot.
func (g *WaitGraph) IsWaiting(o Owner) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, parked := g.parked[o]
	_, waiting := g.edges[o]
	return parked || waiting
}

// Abort marks o as an externally chosen deadlock victim and wakes its
// parked acquisition, if any: the waiter's unblock, or its next block,
// consumes the mark and returns ErrDeadlock. The wake never blocks — if
// the table waker raced us the waiter is waking anyway and observes the
// mark. A mark for an owner that never waits again lingers until
// ClearAbort (the server's transaction-state GC clears it when the
// victim's record is purged).
func (g *WaitGraph) Abort(o Owner) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.aborted[o] = struct{}{}
	if w, ok := g.parked[o]; ok {
		w.Wake()
	}
}

// ClearAbort drops any unconsumed victim mark for o.
func (g *WaitGraph) ClearAbort(o Owner) {
	g.mu.Lock()
	delete(g.aborted, o)
	g.mu.Unlock()
}

// reaches reports whether target is reachable from any of from via the
// wait-for edges; a target among from is reached at once (waiting for
// yourself is trivially a cycle). Callers hold g.mu. The common case —
// no holder is itself waiting — returns without allocating.
func (g *WaitGraph) reaches(from []Owner, target Owner) bool {
	var stack []Owner
	for _, h := range from {
		if h == target {
			return true
		}
		for next := range g.edges[h] {
			stack = append(stack, next)
		}
	}
	var seen map[Owner]bool
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		if seen == nil {
			seen = make(map[Owner]bool)
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for next := range g.edges[cur] {
			stack = append(stack, next)
		}
	}
	return false
}
