package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl"
	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// env is one started engine with its data loaded and its clients
// connected: everything set-up builds and the measured window uses.
type env struct {
	s    spec
	seed int64
	keys []string

	store *mvtl.Store // bedLocal on the wall clock
	// bedLocal with spec.tickMicros: the engine mvtl.Open assembles,
	// reading ticks, a clock the harness advances, instead of the wall
	// clock (see start).
	engine *core.DB
	ticks  clock.Manual
	clus   *cluster.Cluster // bedTCP, bedVirtual
	virt   *clock.Virtual   // bedVirtual
	rec    *history.Recorder
	// Traced runs only: the span recorder, the counting network it
	// feeds, and the event counter around the virtual timeline.
	tr     *tracer
	net    *countingNet
	timers *countingTimers

	// purgeMark is the clock reading at the previous purge point
	// (client 0 only; see purge).
	purgeMark int64

	// sessions are the workload's clients, one per client goroutine.
	sessions []session
	// warm is the warm-up's outcome, kept for the read-back check.
	warm []clientResult
}

// envOpts selects the optional attachments of an env.
type envOpts struct {
	// recorder attaches a history.Recorder (correctness gate).
	recorder bool
	// tr, when non-nil, wraps the network and the sessions so every
	// boundary records spans and counts.
	tr *tracer
}

// setUp starts the engine, loads every key and runs the warm-up. It
// ends with a runtime.GC, which marks the start of the measured window.
func setUp(s spec, seed int64, keys []string, o envOpts) (*env, error) {
	e := &env{s: s, seed: seed, keys: keys[:s.keys], tr: o.tr}
	if e.tr != nil {
		e.tr.now = e.now
	}
	if o.recorder {
		e.rec = &history.Recorder{}
	}
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.preload(); err != nil {
		e.close()
		return nil, err
	}
	e.warm = e.drive(phaseWarmup, s.warmup().attempts/s.clients)
	for _, r := range e.warm {
		if r.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	runtime.GC()
	return e, nil
}

// start brings the engine up and connects the workload's clients.
func (e *env) start() error {
	if e.s.bed == bedLocal {
		if e.s.tickMicros > 0 {
			// mvtl.Open hard-wires the wall clock, and under contention
			// the engine's state depends on how many transactions fit
			// into one Δ of it, that is on the machine's speed. So this
			// is mvtl.Open's own assembly with one part swapped, the
			// clock source. The clock starts above zero, the timestamp
			// of "never purged".
			e.ticks.Set(deltaMicros)
			pol := policy.NewTIL(clock.NewProcess(&e.ticks, 1), deltaMicros, policy.CommitEarly, true)
			e.engine = core.New(pol, core.Options{})
		} else {
			e.store = mvtl.Open(mvtl.Options{Algorithm: mvtl.TILEarly, Delta: deltaMicros})
		}
		for c := 0; c < e.s.clients; c++ {
			e.sessions = append(e.sessions, e.traced(e.local()))
		}
		return nil
	}
	cfg := cluster.Config{Servers: servers, Recorder: e.rec}
	var inner transport.Network = transport.TCP{}
	if e.s.bed == bedVirtual {
		// The fault bed's recipe, fault-free: every wait on one virtual
		// timeline, timestamps read from it, and the deadlock detector's
		// timer-driven polls off (TIL lock requests never park).
		e.virt = clock.NewVirtual()
		e.virt.Register() // this goroutine is the timeline's root actor
		var timers clock.Timers = e.virt
		if e.tr != nil {
			e.timers = &countingTimers{Timers: e.virt}
			timers = e.timers
		}
		cfg.Timers = timers
		cfg.DeadlockPoll = -1
		inner = transport.NewMemSeededTimers(cluster.LatencyFor(cluster.BedLocal), e.seed, timers)
	}
	cfg.Network = inner
	if e.tr != nil {
		e.net = newCountingNet(inner, e.s.bed == bedTCP, e.tr)
		cfg.Network = e.net
	}
	clus, err := cluster.Start(cfg)
	if err != nil {
		return err
	}
	e.clus = clus
	for c := 0; c < e.s.clients; c++ {
		cl, err := clus.NewClient(client.ModeTILEarly, deltaMicros, e.source())
		if err != nil {
			return err
		}
		e.sessions = append(e.sessions, e.traced(&kvSession{db: cl}))
	}
	return nil
}

// local returns a fresh session on the in-process engine.
func (e *env) local() session {
	if e.engine != nil {
		return &kvSession{db: e.engine.KV()}
	}
	return &localSession{store: e.store}
}

// localStats reads the in-process engine's state size.
func (e *env) localStats() core.StateStats {
	if e.engine != nil {
		return e.engine.StateStats()
	}
	return e.store.Stats()
}

// source is the clock coordinators stamp transactions from: nil (the
// system clock) on the wall-clock beds, the modelled timeline on the
// virtual bed, where timestamp spacing must follow virtual time.
func (e *env) source() clock.Source {
	if e.virt == nil {
		return nil
	}
	return clock.TimersSource{T: e.virt}
}

// traced wraps a session with the span recorder on traced runs.
func (e *env) traced(s session) session {
	if e.tr == nil {
		return s
	}
	return &tracedSession{inner: s, tr: e.tr}
}

// close tears the engine down and leaves the virtual timeline.
func (e *env) close() {
	if e.clus != nil {
		e.clus.Close()
	}
	if e.virt != nil {
		e.virt.Unregister()
	}
}

// preload writes every key once, preloadBatch keys per transaction, so
// the measured window never reads ⊥ and version lists start non-empty.
// Networked beds load through a timestamp-ordering coordinator: it
// write-locks a transaction's whole write set with one batch per server
// at commit, where MVTIL pays one round trip per key, and the servers
// end in the same state (one frozen version per key).
func (e *env) preload() error {
	loaders := make([]session, e.s.clients)
	for c := range loaders {
		if e.s.bed == bedLocal {
			loaders[c] = e.local()
			continue
		}
		cl, err := e.clus.NewClient(client.ModeTO, 0, e.source())
		if err != nil {
			return err
		}
		loaders[c] = &kvSession{db: cl}
	}
	ctx := context.Background()
	batches := (len(e.keys) + preloadBatch - 1) / preloadBatch
	errs := make([]error, len(loaders))
	e.parallel(len(loaders), func(c int) {
		for b := c; b < batches; b += len(loaders) {
			lo := b * preloadBatch
			hi := min(lo+preloadBatch, len(e.keys))
			if err := preloadBatchTxn(ctx, loaders[c], e.keys, lo, hi, e.s.valueSize); err != nil {
				errs[c] = fmt.Errorf("preload keys %d-%d: %w", lo, hi, err)
				return
			}
		}
	})
	return errors.Join(errs...)
}

// preloadBatchTxn writes keys[lo:hi] in one transaction, retrying the
// rare abort (a preload transaction conflicts with nothing but can
// still meet a clock tie). fresh gives every key its own value slice:
// the in-process store keeps the slice it is handed, the coordinators
// copy it onto the wire.
func preloadBatchTxn(ctx context.Context, s session, keys []string, lo, hi, valueSize int) error {
	var err error
	for try := 0; try < 5; try++ {
		if err = s.begin(ctx); err != nil {
			return err
		}
		for k := lo; k < hi && err == nil; k++ {
			v := make([]byte, valueSize)
			binary.LittleEndian.PutUint64(v, valueID(phasePreload, 0, k))
			err = s.write(ctx, keys[k], v)
		}
		if err == nil {
			err = s.commit(ctx)
		}
		if err == nil {
			return nil
		}
		s.abort(ctx)
		if !errors.Is(err, kv.ErrAborted) {
			return err
		}
	}
	return err
}

// parallel runs fn(0..n-1): on its own goroutines on the wall-clock
// beds, inline on the virtual bed, whose single client is the
// registered root actor of the timeline.
func (e *env) parallel(n int, fn func(i int)) {
	if e.virt != nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// now reads the bed's clock in nanoseconds: the monotonic wall clock,
// or the modelled timeline on the virtual bed.
func (e *env) now() int64 {
	if e.virt != nil {
		return e.virt.Now().UnixNano()
	}
	return int64(time.Since(processStart))
}

// processStart anchors the monotonic readings of the wall-clock beds.
var processStart = time.Now()
