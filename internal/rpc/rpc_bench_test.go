package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// benchMux drives one Client with `workers` concurrent callers, each
// pinned to its own flow so the pool spreads them over its connections.
func benchMux(b *testing.B, n transport.Network, addr string, conns, workers int) {
	b.Helper()
	c := NewClient(n, addr, conns)
	b.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()
	// Warm every pool slot off the clock.
	for f := 0; f < conns; f++ {
		fb, err := c.Call(ctx, uint64(f), wire.TStatsReq, nil)
		if err != nil {
			b.Fatal(err)
		}
		fb.Release()
	}
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				fb, err := c.Call(ctx, uint64(w), wire.TStatsReq, nil)
				if err != nil {
					b.Error(err)
					return
				}
				fb.Release()
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkMuxInflightMem measures RPC throughput against an in-memory
// echo server whose latency model charges a per-frame transmission
// cost: 250µs of connection occupancy per frame, i.e. a single
// connection carries at most 4k frames/s no matter how many requests
// are pipelined on it (think a congested single-stream link or a
// saturated NIC queue). With many callers in flight the single
// connection is the bottleneck resource and throughput pins at the cap,
// while a pool of four transmits in parallel. The workers=32/conns=1 vs
// conns=4 pair is the "throughput vs in-flight transactions per
// connection" series of BENCH_rpc.json.
func BenchmarkMuxInflightMem(b *testing.B) {
	for _, workers := range []int{1, 8, 32} {
		for _, conns := range []int{1, 4} {
			b.Run(fmt.Sprintf("w%d_conns%d", workers, conns), func(b *testing.B) {
				n := transport.NewMem(transport.LatencyModel{
					PerFrame: 250 * time.Microsecond,
				})
				addr, _ := startEcho(b, n, "echo", 0)
				benchMux(b, n, addr, conns, workers)
			})
		}
	}
}

// BenchmarkMuxInflightTCP is the same sweep over real loopback sockets:
// the per-frame cost is the actual write/read syscall pair, so the pool
// win is whatever the kernel grants.
func BenchmarkMuxInflightTCP(b *testing.B) {
	for _, workers := range []int{1, 8, 32} {
		for _, conns := range []int{1, 4} {
			b.Run(fmt.Sprintf("w%d_conns%d", workers, conns), func(b *testing.B) {
				addr, _ := startEcho(b, transport.TCP{}, "127.0.0.1:0", 0)
				benchMux(b, transport.TCP{}, addr, conns, workers)
			})
		}
	}
}
