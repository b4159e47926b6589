// Package bad holds mutexes across blocking network calls — the exact
// head-of-line-blocking bug class the per-peer-mutex fix in the rpc
// layer repaired, reproduced so the lockorder analyzer proves it fires.
package bad

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

// callUnderLock blocks every other user of p.mu for a full round trip.
func (p *peer) callUnderLock(ctx context.Context) (*wire.FrameBuf, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next++
	return p.cl.Call(ctx, p.next, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: p.next, Keys: []string{"k"}}) // want `rpc.Client.Call while holding p.mu`
}

// sendUnderLock holds the mutex across the transport write path.
func (p *peer) sendUnderLock(fb *wire.FrameBuf) error {
	p.mu.Lock()
	err := p.conn.Send(fb) // want `transport.Conn.Send while holding p.mu`
	p.mu.Unlock()
	return err
}

type registry struct {
	rw   sync.RWMutex
	conn transport.Conn
}

// recvUnderRLock: a read lock blocks writers just the same.
func (r *registry) recvUnderRLock() (*wire.FrameBuf, error) {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.conn.Recv() // want `transport.Conn.Recv while holding r.rw`
}
