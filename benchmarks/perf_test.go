package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// small shrinks a workload for the tests: 1/100 of the attempts over a
// key space small enough that set-up (which loads every key) is
// instant. The streams, the protocol and the code paths are the
// benchmark's own.
func small(s spec) spec {
	s = s.scaled(0.01)
	s.keys = min(s.keys, 4000)
	return s
}

func checkMetrics(t *testing.T, defs []metricDef, r result) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if _, err := r.line(); err != nil {
		t.Errorf("result does not marshal: %v", err)
	}
}

// TestWorkloads runs every workload both ways at 1/100 scale: the
// gate, the repeated set-up, the measured window, the read-back, the
// virtual bed's determinism self-check, the traced pass, the probes and
// the budget all execute.
func TestWorkloads(t *testing.T) {
	runtime.GOMAXPROCS(maxProcs)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel() // the figures are not looked at, only their presence
			r, err := runUntraced(small(s), 7, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, endToEnd, r)
			for _, d := range endToEnd {
				if r.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v: gated metrics must never be 0", d.name, r.Metrics[d.name].Value)
				}
			}

			r, err = runTraced(small(s).scaled(1/traceScale), 7, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, perLayer, r)
			spans := filepath.Join("out", s.name+"-seed7.spans.jsonl")
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("traced run left no spans at %s: %v", spans, err)
			}
			if s.bed != bedLocal && r.Metrics["transport.frames_per_commit.c2s"].Value <= 0 {
				t.Errorf("networked workload counted no client frames")
			}
			if r.Metrics["budget.explained_share"].Value <= 0 {
				t.Errorf("budget explains nothing: %v", r.Metrics["budget.explained_share"].Value)
			}
		})
	}
}

// TestVerifyCatchesLostWrite makes sure the read-back check can fail: a
// committed transaction's bookkeeping is flipped to aborted, so its
// surviving values no longer belong to any committed writer.
func TestVerifyCatchesLostWrite(t *testing.T) {
	s := small(specs[2]) // local-uniform
	e, err := setUp(s, 3, keyTable(s.keys), envOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	w, err := e.measure()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.verify(w.clients); err != nil {
		t.Fatalf("clean run fails the read-back: %v", err)
	}
	for c := range w.clients {
		for seq := range w.clients[c].committed {
			w.clients[c].committed[seq] = false
		}
	}
	if err := e.verify(w.clients); err == nil {
		t.Fatal("read-back accepted values of transactions recorded as aborted")
	}
}

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the binary: it must name
// exactly the workloads and metrics the binary emits, in order, with
// the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != baseSeconds {
		t.Errorf("run_seconds is %d, the attempt counts are sized for %d", f.RunSeconds, baseSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want [benchmarks]", f.Paths)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d built", len(f.Workloads), len(specs))
	}
	for i, s := range specs {
		if f.Workloads[i].Name != s.name || f.Workloads[i].Why != s.why {
			t.Errorf("workload %d is %q (%q), the binary has %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", s.name, len(s.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the binary has %+v", i, g, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d emitted", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the binary has %+v", i, g, d)
		}
	}
}
