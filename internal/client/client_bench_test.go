package client_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// benchCluster starts S storage servers on an in-memory network with the
// given one-way latency and returns a coordinator in the given mode.
func benchCluster(b *testing.B, servers int, mode client.Mode, latency time.Duration) *client.Client {
	b.Helper()
	return benchClusterNet(b, transport.NewMem(transport.LatencyModel{Base: latency}), servers, mode)
}

// benchClusterNet is benchCluster over an arbitrary transport (TCP
// binds loopback ephemeral ports).
func benchClusterNet(b *testing.B, n transport.Network, servers int, mode client.Mode) *client.Client {
	b.Helper()
	addrs := make([]string, servers)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("srv-%d", i)
		if _, isTCP := n.(transport.TCP); isTCP {
			addrs[i] = "127.0.0.1:0"
		}
		srv, err := server.New(server.Config{Addr: addrs[i], Network: n})
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = srv.Addr()
		b.Cleanup(func() { _ = srv.Close() })
	}
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cl.Close() })
	return cl
}

// BenchmarkDistributedCommitTO measures one W-write transaction across S
// servers under timestamp ordering, whose commit step write-locks every
// written key over the wire. The per-transaction wall time is dominated
// by commit round trips, so it exposes whether the footprint travels
// key-at-a-time (O(W) round trips) or batched per server (O(S)).
func BenchmarkDistributedCommitTO(b *testing.B) {
	for _, shape := range []struct{ servers, writes int }{{2, 8}, {4, 16}} {
		b.Run(fmt.Sprintf("s%d_w%d", shape.servers, shape.writes), func(b *testing.B) {
			cl := benchCluster(b, shape.servers, client.ModeTO, 200*time.Microsecond)
			ctx := context.Background()
			keys := make([]string, shape.writes)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%03d", i)
			}
			val := []byte("v")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := cl.Begin(ctx)
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range keys {
					if err := tx.Write(ctx, k, val); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				// Keep server-side lock tables, versions included, from
				// growing across iterations, off the clock.
				if i%64 == 63 {
					b.StopTimer()
					bound := timestamp.New(time.Now().UnixMicro()-1, 0)
					if _, _, err := cl.PurgeServers(ctx, bound); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkDistributedAbortRelease measures the cleanup fan-out of an
// aborting MVTIL transaction holding locks on W keys across S servers.
func BenchmarkDistributedAbortRelease(b *testing.B) {
	const servers, writes = 4, 16
	cl := benchCluster(b, servers, client.ModeTILEarly, 200*time.Microsecond)
	ctx := context.Background()
	keys := make([]string, writes)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	val := []byte("v")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := cl.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := tx.Write(ctx, k, val); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Abort(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedReadPath measures a 16-key static read set over 4
// servers, on the Mem latency bed (200µs one-way) and over real TCP
// loopback sockets. Sequential Reads pay one round trip per key (O(R));
// GetMulti groups the set by owning server and pays one batched,
// parallel round trip per server (O(S), overlapped — the wall clock is
// a single round trip). This is the read-side mirror of
// BenchmarkDistributedCommitTO.
func BenchmarkDistributedReadPath(b *testing.B) {
	const servers, reads = 4, 16
	for _, bed := range []struct {
		name string
		net  func() transport.Network
	}{
		{"mem", func() transport.Network {
			return transport.NewMem(transport.LatencyModel{Base: 200 * time.Microsecond})
		}},
		{"tcp", func() transport.Network { return transport.TCP{} }},
	} {
		for _, batched := range []struct {
			name string
			on   bool
		}{{"sequential", false}, {"getmulti", true}} {
			b.Run(bed.name+"/"+batched.name, func(b *testing.B) {
				cl := benchClusterNet(b, bed.net(), servers, client.ModeTILEarly)
				ctx := context.Background()
				keys := make([]string, reads)
				for i := range keys {
					keys[i] = fmt.Sprintf("key-%03d", i)
				}
				seed, err := cl.Begin(ctx)
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range keys {
					if err := seed.Write(ctx, k, []byte("v")); err != nil {
						b.Fatal(err)
					}
				}
				if err := seed.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx, err := cl.Begin(ctx)
					if err != nil {
						b.Fatal(err)
					}
					if batched.on {
						got, err := tx.(kv.MultiGetter).GetMulti(ctx, keys)
						if err != nil {
							b.Fatal(err)
						}
						if len(got) != reads {
							b.Fatalf("got %d values", len(got))
						}
					} else {
						for _, k := range keys {
							if _, err := tx.Read(ctx, k); err != nil {
								b.Fatal(err)
							}
						}
					}
					if err := tx.Commit(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// pointTxnKeys is the key table of the point-transaction shape: enough
// distinct keys that consecutive transactions never share one.
func pointTxnKeys() []string {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	return keys
}

// pointTxn runs one transaction of the benchmark's tcp-point shape —
// six single-key reads, two writes, commit — over eight consecutive
// keys of the table starting at 8*i.
func pointTxn(ctx context.Context, cl *client.Client, keys []string, i int, val []byte) error {
	tx, err := cl.Begin(ctx)
	if err != nil {
		return err
	}
	ks := keys[(8*i)%len(keys):][:8]
	for _, k := range ks[:6] {
		if _, err := tx.Read(ctx, k); err != nil {
			return err
		}
	}
	for _, k := range ks[6:] {
		if err := tx.Write(ctx, k, val); err != nil {
			return err
		}
	}
	return tx.Commit(ctx)
}

// BenchmarkDistributedPointTxn measures the coordinator and server
// bookkeeping of the benchmark's tcp-point transaction over three
// zero-latency Mem servers under MVTIL-early: with no network time to
// hide behind, ns/op and allocs/op are the per-transaction cost of the
// client, rpc and server layers themselves.
func BenchmarkDistributedPointTxn(b *testing.B) {
	cl := benchCluster(b, 3, client.ModeTILEarly, 0)
	ctx := context.Background()
	keys := pointTxnKeys()
	val := []byte("8 bytes.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pointTxn(ctx, cl, keys, i, val); err != nil {
			b.Fatal(err)
		}
	}
}
