package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

const (
	// setUps is how many times a run sets up: setup_s is their median,
	// because one set-up of a second or two is the noisiest figure here.
	setUps = 3
	// gateKeys and gateAttempts size the correctness gate: a small key
	// space, so the short pass meets real conflicts.
	gateKeys     = 2000
	gateAttempts = 600
)

// gate is the correctness pass that precedes any timing: a short run
// of the workload whose recorded history must be serializable
// (networked beds) and whose final state must hold only values of
// committed transactions (every bed).
func gate(s spec, seed int64, keys []string) error {
	s.keys = min(s.keys, gateKeys)
	s.attempts = gateAttempts
	e, err := setUp(s, seed, keys, envOpts{recorder: s.bed != bedLocal})
	if err != nil {
		return err
	}
	defer e.close()
	w, err := e.measure() // nothing is timed here
	if err != nil {
		return err
	}
	if e.rec != nil {
		if err := e.rec.Check(); err != nil {
			return fmt.Errorf("history of %d commits is not serializable: %w", e.rec.Len(), err)
		}
	}
	return e.verify(w.clients)
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// timedSetUp is a bare setUp and how long it took: engine start,
// preload of every key, warm-up and the GC that marks the start of the
// measured window, in wall seconds.
func timedSetUp(s spec, seed int64, keys []string) (*env, float64, error) {
	t0 := time.Now()
	e, err := setUp(s, seed, keys, envOpts{})
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return e, time.Since(t0).Seconds(), nil
}

// measureBare sets up with nothing attached, measures one window, reads
// the state back and tears down. It returns the window and how long the
// set-up took.
func measureBare(s spec, seed int64, keys []string, log io.Writer) (*window, float64, error) {
	e, setup, err := timedSetUp(s, seed, keys)
	if err != nil {
		return nil, 0, err
	}
	defer e.close()
	w, err := e.measure()
	if err != nil {
		return nil, 0, err
	}
	t := w.timings()
	fmt.Fprintf(log, "%s: set-up %.3fs; %d attempts, %d commits, %d aborts, %d failures in %.3fs: %.1f commits/s, p50 %.1fus over %d samples, p99 %.1fus, %.1f cpu-us/commit\n",
		s.name, setup, w.attempts, w.commits, w.aborts, w.failures, w.seconds,
		t["commit_txs_per_s"], t["txn_p50_us"], len(w.lat), w.percentile(0.99), t["cpu_us_per_commit"])
	return w, setup, e.verify(w.clients)
}

// runUntraced produces the end-to-end metrics: gate, repeated set-up,
// one measured window with nothing attached, read-back. On the virtual
// bed the whole measurement runs twice and the modelled figures must
// agree to the last bit.
func runUntraced(s spec, seed int64, log io.Writer) (result, error) {
	keys := keyTable(s.keys)
	if err := gate(s, seed, keys); err != nil {
		return result{}, fmt.Errorf("correctness gate: %w", err)
	}
	fmt.Fprintf(log, "%s: gate passed at %.2fs\n", s.name, time.Since(processStart).Seconds())

	runs := 1
	if s.bed == bedVirtual {
		runs = 2
	}
	var setups []float64
	for len(setups) < setUps-runs { // the measured runs set up too
		e, setup, err := timedSetUp(s, seed, keys)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, setup)
		e.close()
	}
	var windows []*window
	for i := 0; i < runs; i++ {
		w, setup, err := measureBare(s, seed, keys, log)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, setup)
		windows = append(windows, w)
	}
	first := windows[0]
	if runs == 2 {
		if err := sameModelled(first, windows[1]); err != nil {
			return result{}, err
		}
	}
	vals := endToEndValues(first)
	vals["setup_s"] = median(setups)
	fmt.Fprintf(log, "%s: set-ups took %.3fs\n", s.name, setups)
	metrics, err := fill(endToEnd, vals)
	if err != nil {
		return result{}, err
	}
	return result{Correct: true, Attempted: first.attempts, Failed: first.failures, Metrics: metrics}, nil
}

// sameModelled is the determinism self-check of the virtual bed: the
// figures that come off the modelled timeline — throughput, median
// latency, commit rate — must repeat exactly.
func sameModelled(a, b *window) error {
	ta, tb := a.timings(), b.timings()
	ta["commit_rate"], tb["commit_rate"] = endToEndValues(a)["commit_rate"], endToEndValues(b)["commit_rate"]
	var errs []error
	for _, name := range []string{"commit_txs_per_s", "txn_p50_us", "commit_rate"} {
		if ta[name] != tb[name] {
			errs = append(errs, fmt.Errorf("%s: %v then %v", name, ta[name], tb[name]))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("virtual-time run is not deterministic: %w", errors.Join(errs...))
	}
	return nil
}
