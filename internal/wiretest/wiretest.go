// Package wiretest checks that a test binary gives back every pooled
// frame buffer it takes: PROTOCOL.md "Buffer ownership" rules 1, 3, 4
// and 6, enforced by the pool's own balance.
package wiretest

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

// Main runs the binary's tests and then fails it unless
// wire.Outstanding is 0: a buffer that no path released. A goroutine
// that outlives its test — a test server's handler not joined when its
// connection closed — may still hold a frame when the last test
// returns, so the count gets two seconds to settle; a lost buffer never
// comes back. Call it as
//
//	func TestMain(m *testing.M) { wiretest.Main(m) }
func Main(m *testing.M) {
	code := m.Run()
	for i := 0; i < 200 && wire.Outstanding() != 0; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := wire.Outstanding(); n != 0 {
		fmt.Fprintf(os.Stderr, "wiretest: frame buffers never released: %d\n", n)
		code = 1
	}
	os.Exit(code)
}
