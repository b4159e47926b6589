// Package deadlock implements the coordinator side of cross-server
// deadlock detection for the distributed MVTL algorithm.
//
// A single storage server detects wait-for cycles among the
// transactions parked on its own lock tables (lock.WaitGraph), but a
// cycle spanning servers — transaction A parked on server 1 waiting for
// B, B parked on server 2 waiting for A — is invisible to every local
// graph, and before this package existed it was resolved only by the
// 1s lock-wait timeout. The protocol here converts that stall into a
// sub-100ms abort-and-retry:
//
//   - Edge export. Every server labels its wait-for edges with the key
//     of the blocking lock table and exports them two ways: piggybacked
//     on lock responses that report conflicts (wire.ReadLockBatchResp
//     and wire.WriteLockBatchResp carry an Edges field), and on demand via
//     the wire.TWaitGraphReq poll. Piggybacking is free but only helps
//     the requests that come back; a coordinator whose request is
//     parked inside a cycle gets no response at all, so while any of
//     its lock RPCs is outstanding it polls every server on a short
//     interval.
//
//   - Graph assembly. The coordinator merges the per-server snapshots
//     into one global graph (Graph.Observe replaces a server's slice
//     wholesale — each snapshot supersedes the previous view of that
//     server) and runs cycle detection over the union.
//
//   - Confirmation. Per-server snapshots are taken at different
//     moments, so an apparent cycle may be stale. Mirroring the
//     confirm-under-full-lock discipline of lock.WaitGraph, the
//     detector re-polls and only acts on a cycle observed twice; the
//     receiving server additionally validates that the victim is still
//     waiting there before doing anything.
//
//   - Victim abort. For each confirmed cycle the victim is chosen
//     deterministically — the lowest transaction id in the cycle — so
//     that several coordinators detecting the same cycle concurrently
//     agree on who dies and cannot shoot down one transaction each.
//     The coordinator sends wire.TVictimAbortReq to the server owning
//     the key the victim blocks on (that is where it is parked); the
//     server aborts the victim through the transaction's commitment
//     object (the existing decide path) and wakes the parked
//     acquisition with a deadlock error. The victim's coordinator sees
//     wire.StatusDeadlock, aborts, and can retry immediately — the
//     conflicting work was killed on purpose, unlike an ordinary
//     conflict where backing off is the right policy.
//
// This package holds the pure parts — the mergeable graph and the
// cycle/victim computation — so they can be tested and benchmarked
// without a cluster; the polling goroutine lives in package client.
package deadlock

import (
	"sort"
	"sync"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

// Victim identifies the transaction to abort for one detected cycle:
// the lowest transaction id in the cycle, and the key it is blocked on
// (which names the server where it is parked).
type Victim struct {
	Txn uint64
	Key string
}

// Graph accumulates per-server wait-for snapshots and finds cycles in
// their union. It is safe for concurrent use: transaction goroutines
// feed piggybacked edges while the detector goroutine polls and scans.
type Graph struct {
	mu    sync.Mutex
	snaps map[string][]wire.WaitEdge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{snaps: make(map[string][]wire.WaitEdge)}
}

// Observe replaces the stored snapshot of source's wait-for edges.
// Passing an empty slice clears the source — a server that reports no
// waiters has no edges to contribute.
func (g *Graph) Observe(source string, edges []wire.WaitEdge) {
	g.mu.Lock()
	if len(edges) == 0 {
		delete(g.snaps, source)
	} else {
		g.snaps[source] = edges
	}
	g.mu.Unlock()
}

// Reset drops every snapshot, used when the coordinator has no blocked
// requests left (stale edges must not trigger aborts later).
func (g *Graph) Reset() {
	g.mu.Lock()
	g.snaps = make(map[string][]wire.WaitEdge)
	g.mu.Unlock()
}

// Edges returns the union of all current snapshots.
func (g *Graph) Edges() []wire.WaitEdge {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []wire.WaitEdge
	for _, es := range g.snaps {
		out = append(out, es...)
	}
	return out
}

// Victims runs cycle detection over the union of snapshots and returns
// one Victim per disjoint cycle found, ordered by transaction id. Nodes
// on a path into a cycle (waiting on the cycle without being part of
// it) are not victims — aborting the cycle frees them.
func (g *Graph) Victims() []Victim {
	return FindVictims(g.Edges())
}

// FindVictims returns one Victim per disjoint cycle in edges: the
// lowest transaction id of each cycle, paired with the key of its
// outgoing edge inside the cycle. The choice is deterministic in the
// edge set, so independent detectors observing the same graph agree.
func FindVictims(edges []wire.WaitEdge) []Victim {
	if len(edges) == 0 {
		return nil
	}
	adj := make(map[uint64][]wire.WaitEdge, len(edges))
	for _, e := range edges {
		if e.Waiter == e.Holder {
			continue // self-loops are resolved locally, never exported
		}
		adj[e.Waiter] = append(adj[e.Waiter], e)
	}
	// Sort adjacency for determinism: map iteration order must not
	// influence which cycle a shared node is attributed to.
	nodes := make([]uint64, 0, len(adj))
	for n, es := range adj {
		nodes = append(nodes, n)
		sort.Slice(es, func(i, j int) bool { return es[i].Holder < es[j].Holder })
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := make(map[uint64]int, len(adj))
	var victims []Victim

	// Iterative DFS with an explicit path stack; a gray hit means the
	// path from that node to the top of the stack is a cycle.
	type frame struct {
		node uint64
		next int // next adjacency index to explore
	}
	for _, start := range nodes {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= len(adj[f.node]) {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			e := adj[f.node][f.next]
			f.next++
			switch color[e.Holder] {
			case white:
				color[e.Holder] = gray
				stack = append(stack, frame{node: e.Holder})
			case gray:
				// Cycle: e.Holder ... top of stack. Collect its nodes,
				// pick the minimum as victim, and record the key of the
				// victim's outgoing edge within the cycle.
				inCycle := map[uint64]bool{}
				for i := len(stack) - 1; i >= 0; i-- {
					inCycle[stack[i].node] = true
					if stack[i].node == e.Holder {
						break
					}
				}
				v := Victim{Txn: ^uint64(0)}
				for n := range inCycle {
					if n < v.Txn {
						v.Txn = n
					}
				}
				for _, ve := range adj[v.Txn] {
					if inCycle[ve.Holder] {
						v.Key = ve.Key
						break
					}
				}
				victims = append(victims, v)
				// Retire the whole DFS path (cycle nodes and the path
				// leading into it) so one scan reports each disjoint
				// cycle once and no node is left gray off-stack; an
				// interlocking cycle hidden behind these nodes is found
				// by the next poll, after the victim dies.
				for i := range stack {
					color[stack[i].node] = black
				}
				stack = stack[:0]
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Txn < victims[j].Txn })
	return victims
}
