package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/version"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// The isolated probes: fixed-iteration loops over one layer's exported
// functions, with inputs shaped like the workload's (value size, keys
// per request, the MVTIL interval). They price a layer's operations so
// the budget can multiply them by the counts the traced pass observed.

// probeRounds repeats every timing loop; the median round is reported.
const probeRounds = 3

// timeLoop runs fn(0..n-1) probeRounds times after a warm-up and
// returns the median round's ns per call and the allocations per call.
func timeLoop(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < n/10+1; i++ {
		fn(i)
	}
	var rounds []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&m1)
	slices.Sort(rounds)
	return rounds[probeRounds/2], float64(m1.Mallocs-m0.Mallocs) / float64(n*probeRounds)
}

// tilInterval is the interval [t, t+Δ] a transaction starting at
// microsecond t asks for, as the coordinator builds it.
func tilInterval(t int64) timestamp.Interval {
	return timestamp.Span(timestamp.New(t, -1<<30), timestamp.New(t+deltaMicros, 1<<30))
}

// probeTimestamp prices the interval-set algebra of one commit.
func probeTimestamp(s spec, out map[string]float64) {
	a := timestamp.NewSet(tilInterval(1000), tilInterval(20_000))
	b := timestamp.NewSet(tilInterval(3000))
	var sink timestamp.Set
	ns, allocs := timeLoop(50_000, func(int) { sink = a.Intersect(b) })
	out["timestamp.set_intersect_ns"] = ns

	// The commit step: start from the full timeline and intersect the
	// locked set of every key of the footprint.
	footprint := make([]timestamp.Set, s.ops)
	for i := range footprint {
		footprint[i] = timestamp.NewSet(tilInterval(1000 + int64(i)))
	}
	ns, allocs2 := timeLoop(30_000, func(int) {
		cand := timestamp.NewSet(timestamp.Full)
		for _, ks := range footprint {
			cand.IntersectInto(ks)
		}
		sink = cand
	})
	_ = sink
	out["timestamp.commit_intersection_ns"] = ns
	out["timestamp.set_allocs"] = allocs + allocs2
}

// probeLock prices the lock table's uncontended paths and one
// contended handoff.
func probeLock(out map[string]float64) error {
	ctx := context.Background()

	// A read: lock the interval above the version read, then let go.
	tbl := lock.NewTable()
	var probeErr error
	ns, _ := timeLoop(30_000, func(i int) {
		owner := lock.Owner(i + 1)
		if _, err := tbl.AcquireRead(ctx, owner, tilInterval(int64(i)), lock.Options{Partial: true}); err != nil {
			probeErr = err
		}
		tbl.ReleaseUnfrozen(owner)
	})
	out["lock.read_acquire_release_ns"] = ns

	// A committing write: lock the interval, freeze the commit point,
	// drop the rest. Frozen points are purged as the timestamp service
	// would, so the table stays the size a live key's is.
	tbl = lock.NewTable()
	ns, _ = timeLoop(30_000, func(i int) {
		owner := lock.Owner(i + 1)
		t := int64(i) * 2 * deltaMicros
		iv := tilInterval(t)
		if _, err := tbl.AcquireWrite(ctx, owner, timestamp.NewSet(iv), lock.Options{Partial: true}); err != nil {
			probeErr = err
		}
		tbl.FreezeWriteAt(owner, iv.Lo)
		tbl.ReleaseUnfrozen(owner)
		if i%64 == 63 {
			tbl.PurgeFrozenBelow(iv.Lo)
		}
	})
	out["lock.write_acquire_freeze_ns"] = ns

	// The commit step's per-key snapshot of what the owner holds.
	tbl = lock.NewTable()
	const holder = lock.Owner(1)
	if _, err := tbl.AcquireRead(ctx, holder, tilInterval(1000), lock.Options{}); err != nil {
		return err
	}
	var readOrWrite, writeOnly timestamp.Set
	ns, _ = timeLoop(50_000, func(int) { tbl.OwnedInto(holder, &readOrWrite, &writeOnly) })
	out["lock.owned_into_ns"] = ns

	// A contended handoff: a waiter parks on a held write lock; timed
	// from the holder's release to the waiter having acquired and
	// released in turn.
	g := lock.NewWaitGraph()
	tbl = lock.NewTableDetected(g)
	hot := timestamp.NewSet(timestamp.Point(timestamp.New(5, 0)))
	start, finished := make(chan struct{}), make(chan error)
	go func() {
		for range start {
			_, err := tbl.AcquireWrite(ctx, lock.Owner(2), hot, lock.Options{Wait: true})
			tbl.ReleaseWrites(lock.Owner(2))
			finished <- err
		}
	}()
	defer close(start)
	var handoff []float64
	for i := 0; i < 1000; i++ {
		if _, err := tbl.AcquireWrite(ctx, lock.Owner(1), hot, lock.Options{Wait: true}); err != nil {
			return err
		}
		start <- struct{}{}
		for g.Waiters() == 0 {
			runtime.Gosched() // until the peer has parked on the held lock
		}
		t0 := time.Now()
		tbl.ReleaseWrites(lock.Owner(1))
		if err := <-finished; err != nil {
			return err
		}
		handoff = append(handoff, float64(time.Since(t0).Nanoseconds()))
	}
	out["lock.contended_handoff_ns"] = median(handoff)
	return probeErr
}

// probeVersion prices the version list of one key.
func probeVersion(s spec, out map[string]float64) error {
	val := make([]byte, s.valueSize)
	var probeErr error
	l := version.NewList()
	ns, _ := timeLoop(30_000, func(i int) {
		if i%64 == 0 {
			l = version.NewList() // a live key holds tens of versions, not thousands
		}
		if err := l.Install(timestamp.New(int64(i%64)+1, 1), val); err != nil {
			probeErr = err
		}
	})
	out["version.install_ns"] = ns
	ns, _ = timeLoop(50_000, func(i int) {
		if _, err := l.LatestBefore(timestamp.New(int64(i%64)+2, 0)); err != nil {
			probeErr = err
		}
	})
	out["version.latest_before_ns"] = ns
	return probeErr
}

// keysPerServer is how many keys one request of the workload carries
// to one server: a batched read spreads the leading reads over the
// servers, a point operation carries one.
func keysPerServer(s spec) int {
	if !s.batchReads {
		return 1
	}
	return max(1, s.ops*(100-s.writePct)/100/servers)
}

// probeWire prices the codec on frames shaped like the workload's.
func probeWire(s spec, out map[string]float64) error {
	val := make([]byte, s.valueSize)
	k := keysPerServer(s)
	fb := wire.GetFrameBuf()
	defer fb.Release()
	var probeErr error

	req := wire.WriteLockBatchReq{Txn: 1, DecisionSrv: "127.0.0.1:40000"}
	for i := 0; i < k; i++ {
		req.Items = append(req.Items, wire.WriteLockItem{Key: fmt.Sprintf("k%07d", i), Set: timestamp.NewSet(tilInterval(1000)), Value: val})
	}
	ns, allocs := timeLoop(30_000, func(i int) {
		// &req: boxing the struct into wire.Message would allocate.
		if err := fb.SetFrame(uint64(i), wire.TWriteLockBatchReq, &req); err != nil {
			probeErr = err
		}
	})
	out["wire.encode_writelock_batch_ns"] = ns

	resp := wire.ReadLockBatchResp{Status: wire.StatusOK}
	for i := 0; i < k; i++ {
		resp.Results = append(resp.Results, wire.ReadLockResult{Status: wire.StatusOK, VersionTS: timestamp.New(100, 1), Value: val, Got: tilInterval(1000)})
	}
	if err := fb.SetFrame(1, wire.TReadLockBatchResp, &resp); err != nil {
		return err
	}
	var into wire.ReadLockBatchResp
	ns, allocs2 := timeLoop(30_000, func(int) {
		if err := into.DecodeInto(fb.Body()); err != nil {
			probeErr = err
		}
	})
	out["wire.decode_readlock_batch_resp_ns"] = ns

	big := wire.WriteLockReq{Txn: 1, Key: "k0000001", DecisionSrv: "127.0.0.1:40000", Set: timestamp.NewSet(tilInterval(1000)), Value: make([]byte, 1024)}
	fb2 := wire.GetFrameBuf()
	defer fb2.Release()
	ns, allocs3 := timeLoop(30_000, func(i int) {
		if err := fb2.SetFrame(uint64(i), wire.TWriteLockReq, &big); err != nil {
			probeErr = err
		}
	})
	out["wire.encode_1k_ns"] = ns
	out["wire.codec_allocs"] = allocs + allocs2 + allocs3
	return probeErr
}

// echoNets are the two networks the round-trip probes run over: real
// loopback sockets, and the in-memory transport with a zero latency
// model, which leaves only the goroutine handoffs.
func echoNets() map[string]transport.Network {
	return map[string]transport.Network{"tcp": transport.TCP{}, "mem": transport.NewMem(transport.LatencyModel{})}
}

func listenAddr(name string) string {
	if name == "tcp" {
		return "127.0.0.1:0"
	}
	return "echo"
}

// probeTransport times a raw frame echo: one Send and one Recv on each
// side, nothing above the transport.
func probeTransport(out map[string]float64) error {
	for name, network := range echoNets() {
		l, err := network.Listen(listenAddr(name))
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			for {
				fb, err := c.Recv()
				if err != nil {
					return
				}
				if c.Send(fb) != nil {
					return
				}
			}
		}()
		c, err := network.Dial(l.Addr())
		if err != nil {
			return err
		}
		var probeErr error
		ns, _ := timeLoop(2000, func(i int) {
			fb := wire.GetFrameBuf()
			if err := fb.SetFrame(uint64(i), wire.TStatsReq, nil); err != nil {
				probeErr = err
			}
			if err := c.Send(fb); err != nil {
				probeErr = err
				return
			}
			r, err := c.Recv()
			if err != nil {
				probeErr = err
				return
			}
			r.Release()
		})
		out["transport."+name+"_frame_rtt_us"] = ns / 1e3
		_ = c.Close()
		_ = l.Close()
		<-done
		if probeErr != nil {
			return probeErr
		}
	}
	return nil
}

// probeRPC times one rpc.Client.Call against an rpc.ServeConn echo:
// the transport echo plus the mux (slot, batcher, demux, reply
// flusher).
func probeRPC(out map[string]float64) error {
	ctx := context.Background()
	for name, network := range echoNets() {
		l, err := network.Listen(listenAddr(name))
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c, err := l.Accept()
			if err != nil {
				return
			}
			rpc.ServeConn(c, func(wire.MsgType) bool { return false },
				func(f *wire.FrameBuf, reply rpc.Reply) { reply(f.Type(), wire.Raw(f.Body())) }, nil)
		}()
		rc := rpc.NewClient(network, l.Addr(), 1)
		var probeErr error
		ns, allocs := timeLoop(2000, func(i int) {
			fb, err := rc.Call(ctx, 1, wire.TStatsReq, nil)
			if err != nil {
				probeErr = err
				return
			}
			fb.Release()
		})
		out["rpc.call_rtt_"+name+"_us"] = ns / 1e3
		if name == "mem" {
			out["rpc.call_allocs"] = allocs
		}
		_ = rc.Close()
		_ = l.Close()
		<-done
		if probeErr != nil {
			return probeErr
		}
	}
	return nil
}

// probeServer times each footprint request of one transaction against
// a one-server cluster, called directly through rpc.Client over the
// zero-latency in-memory transport. The echo round trip over the same
// transport is subtracted, which leaves the handler's own time.
func probeServer(s spec, echoMicros float64, out map[string]float64) error {
	network := transport.NewMem(transport.LatencyModel{})
	clus, err := cluster.Start(cluster.Config{Servers: 1, Network: network})
	if err != nil {
		return err
	}
	defer clus.Close()
	addr := clus.Addrs()[0]
	rc := rpc.NewClient(network, addr, 1)
	defer rc.Close()
	ctx := context.Background()
	val := make([]byte, s.valueSize)
	k := keysPerServer(s)
	keys := keyTable(1000 + k)

	const iters = 1000
	var read, write, decide, freeze, release []float64
	call := func(txn uint64, t wire.MsgType, m wire.Message, into *[]float64) (*wire.FrameBuf, error) {
		t0 := time.Now()
		fb, err := rc.Call(ctx, txn, t, m)
		*into = append(*into, float64(time.Since(t0).Nanoseconds())/1e3)
		return fb, err
	}
	for i := 0; i < iters; i++ {
		txn := uint64(1)<<40 | uint64(i+1)
		iv := tilInterval(time.Now().UnixMicro())
		readKeys := keys[i%1000 : i%1000+k]
		writeKey := keys[(i*7+13)%1000]

		fb, err := call(txn, wire.TReadLockBatchReq, wire.ReadLockBatchReq{Txn: txn, Upper: iv.Hi, Keys: readKeys}, &read)
		if err != nil {
			return err
		}
		var rresp wire.ReadLockBatchResp
		err = rresp.DecodeInto(fb.Body())
		var reads []wire.FreezeReadItem
		for j, r := range rresp.Results {
			reads = append(reads, wire.FreezeReadItem{Key: readKeys[j], Lo: r.VersionTS.Next()})
		}
		fb.Release()
		if err != nil || rresp.Status != wire.StatusOK {
			return fmt.Errorf("server probe: read batch: status %d %s: %v", rresp.Status, rresp.Err, err)
		}

		fb, err = call(txn, wire.TWriteLockReq, wire.WriteLockReq{Txn: txn, Key: writeKey, DecisionSrv: addr, Set: timestamp.NewSet(iv), Value: val}, &write)
		if err != nil {
			return err
		}
		wresp, err := wire.DecodeWriteLockResp(fb.Body())
		fb.Release()
		commitTS, ok := wresp.Got.Min()
		if err != nil || wresp.Status != wire.StatusOK || !ok {
			return fmt.Errorf("server probe: write lock: status %d %s: %v", wresp.Status, wresp.Err, err)
		}

		fb, err = call(txn, wire.TDecideReq, wire.DecideReq{Txn: txn, Proposal: wire.DecideCommit, TS: commitTS}, &decide)
		if err != nil {
			return err
		}
		dresp, err := wire.DecodeDecideResp(fb.Body())
		fb.Release()
		if err != nil || dresp.Status != wire.StatusOK || dresp.Kind != wire.DecideCommit {
			return fmt.Errorf("server probe: decide: status %d kind %v %s: %v", dresp.Status, dresp.Kind, dresp.Err, err)
		}

		for j := range reads {
			reads[j].Hi = commitTS
		}
		fb, err = call(txn, wire.TFreezeBatchReq, wire.FreezeBatchReq{Txn: txn, TS: commitTS, WriteKeys: []string{writeKey}, Reads: reads}, &freeze)
		if err != nil {
			return err
		}
		fb.Release()
		all := append([]string{writeKey}, readKeys...)
		fb, err = call(txn, wire.TReleaseBatchReq, wire.ReleaseBatchReq{Txn: txn, Committed: true, TS: commitTS, Keys: all}, &release)
		if err != nil {
			return err
		}
		fb.Release()
	}
	self := func(xs []float64) float64 { return max(0, median(xs)-echoMicros) }
	out["server.readlock_batch_us"] = self(read)
	out["server.writelock_batch_us"] = self(write)
	out["server.decide_us"] = self(decide)
	out["server.freeze_batch_us"] = self(freeze)
	out["server.release_batch_us"] = self(release)
	return nil
}

// runProbes runs every isolated probe for a workload's shape.
func runProbes(s spec) (map[string]float64, error) {
	out := make(map[string]float64)
	probeTimestamp(s, out)
	if err := probeLock(out); err != nil {
		return nil, fmt.Errorf("lock probe: %w", err)
	}
	if err := probeVersion(s, out); err != nil {
		return nil, fmt.Errorf("version probe: %w", err)
	}
	if err := probeWire(s, out); err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	if err := probeTransport(out); err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}
	if err := probeRPC(out); err != nil {
		return nil, fmt.Errorf("rpc probe: %w", err)
	}
	if err := probeServer(s, out["rpc.call_rtt_mem_us"], out); err != nil {
		return nil, err
	}
	return out, nil
}
