// Package ok holds correct FrameBuf ownership in every shape the repo
// actually uses; the framebuf analyzer must stay silent on all of it.
package ok

import (
	"context"

	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// branchConsume is the tricky satellite case: sent on one branch,
// released on the other — every path consumes exactly once.
func branchConsume(conn transport.Conn, really bool) error {
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(1, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 1, Keys: []string{"k"}}); err != nil {
		fb.Release()
		return err
	}
	if really {
		return conn.Send(fb)
	}
	fb.Release()
	return nil
}

// deferRelease: a deferred Release covers every path, including uses
// after earlier returns would have fired.
func deferRelease() int {
	fb := wire.GetFrameBuf()
	defer fb.Release()
	return fb.WireLen()
}

// transferReturn hands ownership to the caller.
func transferReturn() (*wire.FrameBuf, error) {
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(2, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 2, Keys: []string{"k"}}); err != nil {
		fb.Release()
		return nil, err
	}
	return fb, nil
}

// transferChannel hands ownership to whoever drains the channel.
func transferChannel(ch chan *wire.FrameBuf) {
	fb := wire.GetFrameBuf()
	ch <- fb
}

// transferSlice parks the buffer in a batch the caller owns.
func transferSlice(batch []*wire.FrameBuf) []*wire.FrameBuf {
	fb := wire.GetFrameBuf()
	return append(batch, fb)
}

// loopSend consumes a fresh buffer every iteration, inside the loop's
// own scope.
func loopSend(conn transport.Conn, n int) {
	for i := 0; i < n; i++ {
		fb := wire.GetFrameBuf()
		if err := conn.Send(fb); err != nil {
			return
		}
	}
}

// selectConsume consumes on both select outcomes.
func selectConsume(conn transport.Conn, stop chan struct{}) {
	fb := wire.GetFrameBuf()
	select {
	case <-stop:
		fb.Release()
	default:
		_ = conn.Send(fb)
	}
}

// callReleased releases the response the client handed over; the error
// path legitimately skips it (the result is nil on error).
func callReleased(cl *rpc.Client) (wire.MsgType, error) {
	f, err := cl.Call(context.Background(), 1, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: 3, Keys: []string{"k"}})
	if err != nil {
		return 0, err
	}
	t := f.Type()
	f.Release()
	return t, nil
}

// recvForwarded transfers a received buffer onward instead of releasing.
func recvForwarded(conn transport.Conn, out chan<- *wire.FrameBuf) error {
	f, err := conn.Recv()
	if err != nil {
		return err
	}
	out <- f
	return nil
}
