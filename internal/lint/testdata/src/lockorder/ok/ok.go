// Package ok takes the same locks and makes the same calls as the bad
// fixture, but never holds one across the other. The lockorder
// analyzer must stay silent — including on concrete (non-interface)
// Send methods, which serialize the wire by design.
package ok

import (
	"context"
	"sync"

	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

type peer struct {
	mu   sync.Mutex
	next uint64
	cl   *rpc.Client
	conn transport.Conn
}

// unlockBeforeCall snapshots shared state under the lock, then calls.
func (p *peer) unlockBeforeCall(ctx context.Context) (*wire.FrameBuf, error) {
	p.mu.Lock()
	p.next++
	flow := p.next
	p.mu.Unlock()
	return p.cl.Call(ctx, flow, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: flow, Keys: []string{"k"}})
}

// balancedBranch locks and unlocks inside the branch; the call after
// the branch runs lock-free.
func (p *peer) balancedBranch(bump bool) error {
	if bump {
		p.mu.Lock()
		p.next++
		p.mu.Unlock()
	}
	fb := wire.GetFrameBuf()
	return p.conn.Send(fb)
}

// goroutineRuns: the spawned goroutine does not inherit the caller's
// lock, so its Recv is fine.
func (p *peer) goroutineRuns(done chan error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		f, err := p.conn.Recv()
		if err == nil {
			f.Release()
		}
		done <- err
	}()
	p.next++
}

// loopConn serializes its own writes with a mutex, like the TCP
// transport does; its Send is a concrete method, not the
// transport.Conn interface, and is not a blocking RPC.
type loopConn struct {
	wmu sync.Mutex
	buf []*wire.FrameBuf
}

func (l *loopConn) Send(fb *wire.FrameBuf) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.buf = append(l.buf, fb)
	return nil
}

// concreteSendUnderLock: holding a lock across a concrete, local Send
// is the transport's own business — not flagged.
func concreteSendUnderLock(l *loopConn, mu *sync.Mutex) error {
	mu.Lock()
	defer mu.Unlock()
	fb := wire.GetFrameBuf()
	return l.Send(fb)
}
