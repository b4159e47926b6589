// Package bad holds deliberately-broken FrameBuf ownership: every
// function here violates PROTOCOL.md "Buffer ownership" in a way the
// framebuf analyzer must catch. It compiles — these are exactly the
// bugs the compiler cannot see.
package bad

import (
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// errPathLeak is the classic: the buffer escapes on success but the
// early error return forgets it.
func errPathLeak(conn transport.Conn, id uint64, m wire.Message) error {
	fb := wire.GetFrameBuf()
	if err := fb.SetFrame(id, wire.TReadLockBatchReq, m); err != nil {
		return err // want `pooled frame buffer fb leaks`
	}
	return conn.Send(fb)
}

// neverConsumed gets a buffer and drops it on the floor.
func neverConsumed() int {
	fb := wire.GetFrameBuf()
	return fb.WireLen() // want `pooled frame buffer fb leaks`
}

// useAfterSend touches the buffer after the consuming send.
func useAfterSend(conn transport.Conn) int {
	fb := wire.GetFrameBuf()
	if err := conn.Send(fb); err != nil {
		return 0
	}
	return fb.WireLen() // want `use of pooled frame buffer fb after it was consumed by Send`
}

// useAfterRelease decodes from a frame body after handing the buffer
// back to the pool.
func useAfterRelease() []byte {
	fb := wire.GetFrameBuf()
	fb.Release()
	return fb.Body() // want `use of pooled frame buffer fb after it was consumed by Release`
}

// branchLeak releases on one branch only: the other path leaks.
func branchLeak(ok bool) {
	fb := wire.GetFrameBuf()
	if ok {
		fb.Release()
	}
} // want `pooled frame buffer fb may leak`

// reassignLeak overwrites the only reference to an owned buffer.
func reassignLeak() {
	fb := wire.GetFrameBuf()
	fb = wire.GetFrameBuf() // want `reassigned while still owned`
	fb.Release()
}

// callRespDropped never releases the response buffer rpc.Client.Call
// hands over. (The weak whole-function check catches it even though
// the error path legitimately skips Release.)
func callRespDropped(conn transport.Conn) (wire.MsgType, error) {
	f, err := conn.Recv() // want `frame buffer f returned by Recv is never released or transferred`
	if err != nil {
		return 0, err
	}
	t := f.Type()
	return t, nil
}
