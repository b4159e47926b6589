package main

import (
	"fmt"
	"math/rand"
)

// bed names the test bed a workload runs on.
type bed uint8

const (
	// bedLocal is mvtl.Open in process: no network at all.
	bedLocal bed = iota + 1
	// bedTCP is a 3-server cluster over loopback transport.TCP.
	bedTCP
	// bedVirtual is a 3-server cluster over transport.Mem on clock.Virtual.
	bedVirtual
)

// Protocol constants shared by every workload (README "Run protocol").
const (
	// maxProcs pins GOMAXPROCS: the sandbox has two vCPUs, and a figure
	// measured at another setting is a different figure.
	maxProcs = 2
	// deltaMicros is the MVTIL interval width Δ.
	deltaMicros = 5000
	// servers is the cluster size of the networked beds.
	servers = 3
	// preloadBatch is the number of keys one preload transaction writes.
	preloadBatch = 100
	// warmupShare is the warm-up's length as a share of the measured
	// count. The TCP beds warm up twice as long: their batched preload
	// takes well under a second, and set-up there is to be a figure of
	// three seconds or more, not a sub-second one.
	warmupShare    = 0.10
	warmupShareTCP = 0.20
	// baseSeconds is the --seconds value the attempt counts are sized for.
	baseSeconds = 15
)

// spec is one workload: a fixed amount of work drawn from a seeded
// generator. attempts is the measured transaction count at baseSeconds;
// it is fixed work, never fixed time, so two runs of one commit see the
// same operation stream and the same state growth.
type spec struct {
	name string
	// why is BENCHMARK.json's one-line reason for the workload.
	why        string
	bed        bed
	clients    int
	ops        int
	writePct   int
	keys       int
	zipf       bool
	valueSize  int
	batchReads bool
	attempts   int
	// tickMicros, when set, takes the workload off the scheduler and the
	// wall clock, so that a contended run is a function of its seed and
	// not of the machine's speed. The clients take turns on one
	// goroutine, one call into the engine each, instead of running side
	// by side: which transactions overlap, and so which abort, is the
	// seed's doing (see drive). And the engine's clock advances by this
	// much at every transaction begin and not otherwise, so Δ spans the
	// same number of transactions everywhere (see env.start). Client 0
	// then purges lock and version state every purgeEvery of its
	// attempts (see env.purge).
	tickMicros int64
	purgeEvery int
}

// specs lists the workloads in BENCHMARK.json order.
var specs = []spec{
	{
		name: "tcp-point", bed: bedTCP, clients: 2, ops: 8, writePct: 25, keys: 100_000, valueSize: 8,
		attempts: 53_000,
		why:      "3 TCP servers, 8 single-key ops, 25% writes: ~10 small round trips per txn, so rpc+transport+wire+kernel dominate and lock/timestamp do almost nothing",
	},
	{
		name: "tcp-batch", bed: bedTCP, clients: 2, ops: 16, writePct: 10, keys: 100_000, valueSize: 1024, batchReads: true,
		attempts: 40_000,
		why:      "same cluster, 16 ops, leading reads as one GetMulti, 1 KiB values: few large frames, so per-byte cost replaces per-frame cost",
	},
	{
		name: "local-uniform", bed: bedLocal, clients: 2, ops: 8, writePct: 10, keys: 100_000, valueSize: 8,
		attempts: 780_000,
		why:      "in-process engine, uniform keys: core+policy+lock+timestamp+version on the uncontended fast path, the bypass for every network change",
	},
	{
		name: "local-hot", bed: bedLocal, clients: 2, ops: 8, writePct: 50, keys: 64, zipf: true, valueSize: 8, tickMicros: 50, purgeEvery: 1000,
		attempts: 170_000,
		why:      "in-process engine, Zipf(1.2) over 64 keys, 50% writes: long interval lists, shrinking and aborts, the only workload where commit_rate is informative",
	},
	{
		name: "vt-point", bed: bedVirtual, clients: 1, ops: 8, writePct: 25, keys: 100_000, valueSize: 8,
		attempts: 7_500,
		why:      "tcp-point's shape on clock.Virtual with one sequential client: modelled time is exact, so it moves only when round trips or frames change",
	},
}

// specByName finds a workload.
func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec with its attempt count multiplied by f
// (--seconds other than baseSeconds, the traced run, and the tests run
// the same streams shorter). Every client keeps at least 20 attempts so
// percentiles stay defined.
func (s spec) scaled(f float64) spec {
	n := int(float64(s.attempts) * f)
	if min := 20 * s.clients; n < min {
		n = min
	}
	s.attempts = n - n%s.clients
	return s
}

// warmup returns the spec of the warm-up that precedes a window of s.
func (s spec) warmup() spec {
	if s.bed == bedTCP {
		return s.scaled(warmupShareTCP)
	}
	return s.scaled(warmupShare)
}

// keyTable renders the canonical 8-character key names once, so the
// measured loop never formats a key.
func keyTable(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	return keys
}

// op is one generated operation: an index into the key table.
type op struct {
	key   int32
	write bool
}

// phase separates the generator streams and the value ids of the
// preload, the warm-up and the measured window.
type phase uint8

const (
	phasePreload phase = iota
	phaseWarmup
	phaseMeasure
)

// gen draws one client's transaction stream. The stream is a pure
// function of (seed, phase, client): it is consumed only by next, so
// the read-back check can replay it after the run. next reuses one
// buffer and allocates nothing.
type gen struct {
	s    spec
	rng  *rand.Rand
	zipf *rand.Zipf
	buf  []op
}

func newGen(s spec, seed int64, ph phase, client int) *gen {
	// Distinct odd multipliers keep the three coordinates from aliasing.
	src := seed*1_000_003 + int64(ph)*7919 + int64(client)*104_729 + 1
	g := &gen{s: s, rng: rand.New(rand.NewSource(src)), buf: make([]op, s.ops)}
	if s.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(s.keys-1))
	}
	return g
}

// next returns the next transaction's operations, valid until the
// following call.
func (g *gen) next() []op {
	for i := range g.buf {
		var k int
		if g.zipf != nil {
			k = int(g.zipf.Uint64())
		} else {
			k = g.rng.Intn(g.s.keys)
		}
		g.buf[i] = op{key: int32(k), write: g.rng.Intn(100) < g.s.writePct}
	}
	return g.buf
}

// valueID packs who wrote a value into its first eight bytes, so a
// read-back can tell which transaction a surviving value came from.
func valueID(ph phase, client int, seq int) uint64 {
	return uint64(ph)<<56 | uint64(client)<<48 | uint64(seq)
}

func splitValueID(id uint64) (ph phase, client int, seq int) {
	return phase(id >> 56), int(id >> 48 & 0xff), int(id & (1<<48 - 1))
}
