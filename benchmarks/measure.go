package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"syscall"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/kv"
)

// window is what one measured window observed from outside the system.
type window struct {
	attempts int
	commits  int
	aborts   int
	failures int
	// seconds is the window's length on the bed's clock: wall seconds,
	// or modelled seconds on the virtual bed.
	seconds float64
	// cpuMicros is getrusage user+sys over the window.
	cpuMicros float64
	// lat holds every committed transaction's latency in ns, sorted.
	lat []int64
	// mem0 and mem1 bracket the window.
	mem0, mem1 runtime.MemStats
	clients    []clientResult
}

// percentile returns the q-quantile of the sorted latencies in µs, as
// measured.
func (w *window) percentile(q float64) float64 {
	if len(w.lat) == 0 {
		return 0
	}
	i := int(q * float64(len(w.lat)))
	if i >= len(w.lat) {
		i = len(w.lat) - 1
	}
	return float64(w.lat[i]) / 1e3
}

// perCommit divides a window total by the commit count.
func (w *window) perCommit(total float64) float64 {
	if w.commits == 0 {
		return 0
	}
	return total / float64(w.commits)
}

// cpuMicros reads the process's user+sys CPU time.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs the spec's fixed attempt count on a set-up env. The
// caller has just run runtime.GC (setUp ends with it).
func (e *env) measure() (*window, error) {
	w := &window{attempts: e.s.attempts}
	runtime.ReadMemStats(&w.mem0)
	cpu0, t0 := cpuMicros(), e.now()
	w.clients = e.drive(phaseMeasure, e.s.attempts/e.s.clients)
	w.seconds, w.cpuMicros = float64(e.now()-t0)/1e9, cpuMicros()-cpu0
	runtime.ReadMemStats(&w.mem1)
	var errs []error
	for _, r := range w.clients {
		w.commits += r.commits
		w.aborts += r.aborts
		w.failures += r.failures
		w.lat = append(w.lat, r.lat...)
		if r.err != nil {
			errs = append(errs, r.err)
		}
	}
	slices.Sort(w.lat)
	return w, errors.Join(errs...)
}

// readBack reads every key once, preloadBatch keys per read-only
// transaction, and returns the writer id found in each value.
func (e *env) readBack() ([]uint64, error) {
	var db kv.DB
	if e.engine != nil {
		db = e.engine.KV()
	} else if e.s.bed != bedLocal {
		cl, err := e.clus.NewClient(client.ModeTILEarly, deltaMicros, e.source())
		if err != nil {
			return nil, err
		}
		db = cl
	}
	ctx := context.Background()
	found := make([]uint64, len(e.keys))
	for lo := 0; lo < len(e.keys); lo += preloadBatch {
		batch := e.keys[lo:min(lo+preloadBatch, len(e.keys))]
		var err error
		// With no writer left running no abort is expected; retry the odd one.
		for try := 0; try < 5; try++ {
			if db == nil {
				err = e.readLocal(ctx, batch, found[lo:])
			} else {
				err = readRemote(ctx, db, batch, found[lo:])
			}
			if !errors.Is(err, kv.ErrAborted) {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("read back from %s: %w", batch[0], err)
		}
	}
	return found, nil
}

// readLocal reads keys in one transaction of the in-process store.
func (e *env) readLocal(ctx context.Context, keys []string, found []uint64) error {
	tx, err := e.store.Begin(ctx)
	if err != nil {
		return err
	}
	for i, k := range keys {
		v, err := tx.Get(ctx, k)
		if err != nil {
			return err
		}
		if found[i], err = writerOf(k, v); err != nil {
			_ = tx.Abort(ctx) // Abort never fails
			return err
		}
	}
	return tx.Commit(ctx)
}

// readRemote reads keys through one batched read of a coordinator.
func readRemote(ctx context.Context, db kv.DB, keys []string, found []uint64) error {
	tx, err := db.Begin(ctx)
	if err != nil {
		return err
	}
	vals, err := kv.GetMulti(ctx, tx, keys)
	if err != nil {
		return err
	}
	for i, k := range keys {
		if found[i], err = writerOf(k, vals[k]); err != nil {
			_ = tx.Abort(ctx) // cleanup is best effort by design
			return err
		}
	}
	return tx.Commit(ctx)
}

// writerOf extracts the writer id from a stored value.
func writerOf(key string, v []byte) (uint64, error) {
	if len(v) < 8 {
		return 0, fmt.Errorf("key %s holds %d bytes, want a preloaded value", key, len(v))
	}
	return binary.LittleEndian.Uint64(v), nil
}

// verify checks the store's final state against the run: every value
// must carry the id of a transaction that committed and wrote that key
// (replayed from the seeded generators), and a key some committed
// transaction wrote must no longer hold its preloaded value. An aborted
// transaction's value surviving, or a committed one's vanishing under
// an older value, fails here.
func (e *env) verify(measured []clientResult) error {
	found, err := e.readBack()
	if err != nil {
		return err
	}
	written := make([]bool, len(e.keys)) // some committed txn wrote the key
	matched := make([]bool, len(e.keys)) // …and the surviving value is one of theirs
	replay := func(ph phase, res []clientResult) {
		for c, r := range res {
			g := newGen(e.s, e.seed, ph, c)
			for seq, ok := range r.committed {
				ops := g.next()
				if !ok {
					continue
				}
				id := valueID(ph, c, seq)
				for _, o := range ops {
					if o.write {
						written[o.key] = true
						if found[o.key] == id {
							matched[o.key] = true
						}
					}
				}
			}
		}
	}
	replay(phaseWarmup, e.warm)
	replay(phaseMeasure, measured)
	for k, id := range found {
		ph, c, seq := splitValueID(id)
		switch {
		case matched[k]:
		case written[k]:
			return fmt.Errorf("key %s: committed writes exist but the value is from phase %d client %d attempt %d, which did not commit a write to it", e.keys[k], ph, c, seq)
		case ph != phasePreload || seq != k:
			return fmt.Errorf("key %s: no committed write, yet the value is from phase %d client %d attempt %d", e.keys[k], ph, c, seq)
		}
	}
	return nil
}
