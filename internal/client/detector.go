package client

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// firedWindow suppresses re-firing a victim abort for the same
// transaction while the previous one is still taking effect.
const firedWindow = 500 * time.Millisecond

// detector is the coordinator half of cross-server deadlock detection.
//
// A storage server detects wait-for cycles among the transactions
// parked on its own lock tables (lock.WaitGraph), but a cycle spanning
// servers — transaction A parked on server 1 waiting for B, B parked on
// server 2 waiting for A — is invisible to every local graph, and would
// be broken only by the server's lock-wait timeout, which stays the
// backstop. The detector turns that stall into a prompt abort:
//
//   - It runs only while a request of this coordinator waits. The first
//     lock request that may park server-side (one sent with Wait: the
//     pessimistic policy's locks, MVTL-TO's reads) starts its loop; the
//     loop exits at the first wake-up that finds no request waiting. A
//     coordinator that never waits runs nothing and arms no timer.
//   - Each scan is one poll: a TWaitGraphReq to every partition's current
//     head, sent together, whose answers' union is the global graph. The
//     poll is the only way edges reach the detector. A head that does not
//     answer in time contributes nothing to that scan.
//   - Per-server snapshots are taken at different moments, so a cycle
//     seen once may be stale, so a scan that finds cycles is followed at
//     once by a second, and only victims found by both are shot.
//   - The victim of a cycle is its lowest transaction id, so coordinators
//     that see one cycle agree on whom to abort. The abort goes to the
//     server owning the key the victim is parked on, which checks that it
//     is still waiting there (lock.WaitGraph.IsWaiting), aborts it through
//     its commitment object and wakes it with a deadlock error; its
//     coordinator sees wire.StatusDeadlock and may retry at once.
type detector struct {
	c    *Client
	poll time.Duration
	stop chan struct{} // closed by close

	mu sync.Mutex
	// waiting counts in-flight lock requests that may park server-side.
	waiting int
	// running is set while a loop runs, and done is closed when the last
	// loop started returns; closed is set by close, after which no loop
	// starts.
	running, closed bool
	done            chan struct{}

	// fired maps recently aborted victims to the time of the abort; only
	// the loop touches it, and one loop runs at a time.
	fired map[uint64]time.Time
}

// enter and exit bracket a lock request that may park server-side. An
// enter that finds no loop running starts one; a running loop sees the
// request at its next wake-up.
func (d *detector) enter() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.waiting++
	if d.running || d.closed {
		return
	}
	done := make(chan struct{})
	d.running, d.done = true, done
	d.c.timers.Go(func() { d.run(done) })
}

func (d *detector) exit() {
	d.mu.Lock()
	d.waiting--
	d.mu.Unlock()
}

// close stops a running loop and waits for it to return; no loop starts
// after it. It is safe to call more than once (Client.Close may run from
// both a test cleanup and a cluster teardown).
func (d *detector) close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.stop)
	}
	done := d.done
	d.mu.Unlock()
	if done != nil {
		<-done
	}
}

// run scans once per poll period for as long as a request waits.
func (d *detector) run(done chan struct{}) {
	defer close(done)
	for {
		d.c.timers.SleepStop(d.poll, d.stop)
		d.mu.Lock()
		idle := d.waiting == 0 || d.closed
		d.running = !idle
		d.mu.Unlock()
		if idle {
			return
		}
		d.scan()
	}
}

// scan aborts the victims of the cycles found by two consecutive polls.
func (d *detector) scan() {
	victims := findVictims(d.pollOnce())
	if len(victims) == 0 {
		return
	}
	confirmed := findVictims(d.pollOnce())
	now := d.c.timers.Now()
	if d.fired == nil {
		d.fired = make(map[uint64]time.Time)
	}
	for txn, at := range d.fired {
		if now.Sub(at) > 4*firedWindow {
			delete(d.fired, txn)
		}
	}
	for _, v := range victims {
		i := slices.IndexFunc(confirmed, func(cv victim) bool { return cv.txn == v.txn })
		if i < 0 || confirmed[i].key == "" {
			continue
		}
		if last, seen := d.fired[v.txn]; seen && now.Sub(last) < firedWindow {
			continue
		}
		d.fired[v.txn] = now
		d.abortVictim(confirmed[i])
	}
}

// pollOnce asks the current head of every partition for its wait-for
// edges — not the static server list: after a failover the waits live on
// the promoted replica — and returns the union of the answers. As a
// fan-out does, it sends every request first and then waits for each
// reply on the calling goroutine, all under one deadline of four poll
// periods. A head that cannot be reached, or does not answer by then,
// contributes nothing.
func (d *detector) pollOnce() []wire.WaitEdge {
	ctx, cancel := d.c.timers.WithTimeout(context.Background(), 4*d.poll)
	defer cancel()
	calls := make([]rpc.Pending, 0, len(d.c.cfg.Servers))
	for p := range d.c.cfg.Servers {
		addr, _ := d.c.routeFor(p)
		if call, err := d.c.conn(addr).Start(0, wire.TWaitGraphReq, nil); err == nil {
			calls = append(calls, call)
		}
	}
	var edges []wire.WaitEdge
	for _, call := range calls {
		f, err := call.Wait(ctx)
		if err != nil {
			continue
		}
		resp, err := wire.DecodeWaitGraphResp(f.Body())
		f.Release()
		if err == nil {
			edges = append(edges, resp.Edges...)
		}
	}
	return edges
}

// abortVictim routes the abort to the server owning the key the victim
// is parked on. The reply is advisory (the server validates that the
// victim is really waiting there); failures are resolved by the next
// scan or, ultimately, the lock-wait timeout.
func (d *detector) abortVictim(v victim) {
	ctx, cancel := d.c.timers.WithTimeout(context.Background(), 4*d.poll)
	defer cancel()
	addr, _ := d.c.routeFor(d.c.partitionFor(v.key))
	f, err := d.c.call(ctx, addr, 0, wire.TVictimAbortReq,
		wire.VictimAbortReq{Txn: v.txn, Key: v.key})
	if err == nil {
		f.Release()
	}
}

// victim identifies the transaction to abort for one detected cycle: the
// lowest transaction id in the cycle, and the key it is blocked on
// (which names the server where it is parked).
type victim struct {
	txn uint64
	key string
}

// findVictims returns one victim per disjoint cycle in edges: the lowest
// transaction id of each cycle, paired with the key of its outgoing edge
// inside the cycle, ordered by transaction id. The choice is
// deterministic in the edge set, so independent detectors observing the
// same graph agree. Nodes on a path into a cycle (waiting on the cycle
// without being part of it) are not victims — aborting the cycle frees
// them.
func findVictims(edges []wire.WaitEdge) []victim {
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
	var victims []victim

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
				v := victim{txn: ^uint64(0)}
				for n := range inCycle {
					if n < v.txn {
						v.txn = n
					}
				}
				for _, ve := range adj[v.txn] {
					if inCycle[ve.Holder] {
						v.key = ve.Key
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
	sort.Slice(victims, func(i, j int) bool { return victims[i].txn < victims[j].txn })
	return victims
}
