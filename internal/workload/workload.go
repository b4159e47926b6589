// Package workload generates and drives the transactional workloads of
// the paper's evaluation (§8.3): closed-loop clients repeatedly submit
// transactions of a fixed size with a given write fraction over a keyspace,
// while throughput and commit rate are measured after a warm-up phase.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/metrics"
)

// KeyDist selects the key popularity distribution.
type KeyDist uint8

// Supported key distributions.
const (
	// Uniform picks keys uniformly at random (the paper's setting).
	Uniform KeyDist = iota + 1
	// Zipf picks keys with a zipfian skew (s=1.2), modelling hot keys.
	Zipf
)

// Config describes one workload (one experiment cell of §8.3).
type Config struct {
	// Clients is the number of closed-loop client goroutines.
	Clients int
	// OpsPerTxn is the number of operations per transaction.
	OpsPerTxn int
	// WriteFraction in [0,1] is the probability an operation is a write.
	WriteFraction float64
	// Keys is the keyspace size.
	Keys int
	// Dist selects the key distribution (default Uniform).
	Dist KeyDist
	// ValueSize is the written value length (the paper uses 8 bytes).
	ValueSize int
	// WarmUp runs before measurement starts (§8.3 uses 40s; scale down).
	WarmUp time.Duration
	// Measure is the measurement window (§8.3 uses 20s; scale down).
	Measure time.Duration
	// TxnTimeout bounds one transaction attempt; it doubles as deadlock
	// resolution for blocking engines.
	TxnTimeout time.Duration
	// Retry re-submits an aborted transaction (as the paper's clients
	// may restart with an adjusted interval). A retried attempt still
	// counts one abort and one new attempt. A commit that returns
	// kv.ErrUncertain is not retried: it may have committed.
	Retry bool
	// BatchReads groups each transaction's leading read operations
	// into one static read set issued via kv.GetMulti — O(servers)
	// round trips on engines with a batched read path instead of one
	// per key (engines without one fall back to key-at-a-time reads).
	// The ops are pre-generated, so the leading reads are known before
	// the transaction starts; writes and trailing reads still run one
	// at a time. Off by default so figures can compare both shapes.
	BatchReads bool
	// Seed makes runs reproducible; 0 derives per-client seeds from 1.
	Seed int64
	// Counters, when non-nil, receives the run's events (recording is
	// toggled around the measurement window); callers can sample it
	// live, as the over-time experiments do. Defaults to an internal
	// counter set.
	Counters *metrics.Counters
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.OpsPerTxn == 0 {
		c.OpsPerTxn = 20
	}
	if c.Keys == 0 {
		c.Keys = 1000
	}
	if c.Dist == 0 {
		c.Dist = Uniform
	}
	if c.ValueSize == 0 {
		c.ValueSize = 8
	}
	if c.Measure == 0 {
		c.Measure = time.Second
	}
	if c.TxnTimeout == 0 {
		c.TxnTimeout = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result aggregates one workload run.
type Result struct {
	// Snapshot holds the measured event counts.
	metrics.Snapshot
	// Elapsed is the measurement window length actually used.
	Elapsed time.Duration
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%.0f txs/s, commit rate %.3f (%d commits, %d aborts)",
		r.Throughput(), r.CommitRate(), r.Commits, r.Aborts)
}

// Key renders the canonical key name for index i (8-character keys, as
// in the paper's implementation).
func Key(i int) string { return fmt.Sprintf("k%07d", i) }

// Op is one generated transaction operation.
type Op struct {
	// Key is the operation's key.
	Key string
	// Write selects a write (with the generator's value) over a read.
	Write bool
}

// Gen deterministically generates the operation stream one closed-loop
// client runs: same config and seed, same stream, independent of
// timing. The fault bed drives its scenario workloads through a Gen so
// a scenario's transaction sequence is a pure function of its seed.
// Not safe for concurrent use.
type Gen struct {
	cfg   Config
	rng   *rand.Rand
	zipf  *rand.Zipf
	value []byte
}

// NewGen returns a generator for cfg seeded with seed. Only the key
// and operation-shape fields of cfg are used (Keys, Dist, OpsPerTxn,
// WriteFraction, ValueSize).
func NewGen(cfg Config, seed int64) *Gen {
	cfg = cfg.withDefaults()
	g := &Gen{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if cfg.Dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(cfg.Keys-1))
	}
	g.value = make([]byte, cfg.ValueSize)
	for i := range g.value {
		g.value[i] = byte('a' + g.rng.Intn(26))
	}
	return g
}

// Value returns the value every write of this generator carries.
func (g *Gen) Value() []byte { return g.value }

// pickKey draws one key.
func (g *Gen) pickKey() string {
	if g.zipf != nil {
		return Key(int(g.zipf.Uint64()))
	}
	return Key(g.rng.Intn(g.cfg.Keys))
}

// Txn generates the next transaction's operations. Retries of an
// aborted transaction should replay the same ops, not draw new ones.
func (g *Gen) Txn() []Op {
	ops := make([]Op, g.cfg.OpsPerTxn)
	for i := range ops {
		ops[i] = Op{Key: g.pickKey(), Write: g.rng.Float64() < g.cfg.WriteFraction}
	}
	return ops
}

// Run drives db with the configured closed-loop clients and returns the
// measured result. The context cancels the whole run early.
func Run(ctx context.Context, db kv.DB, cfg Config) (Result, error) {
	return RunWithSampler(ctx, db, cfg, nil)
}

// RunWithSampler is Run with an optional sampler started right before
// the measurement window (used by the over-time experiments).
func RunWithSampler(ctx context.Context, db kv.DB, cfg Config, sampler *metrics.Sampler) (Result, error) {
	cfg = cfg.withDefaults()
	ctr := cfg.Counters
	if ctr == nil {
		ctr = &metrics.Counters{}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			client(runCtx, db, cfg, seed, ctr)
		}(cfg.Seed + int64(c))
	}

	// Warm-up, then measure.
	if cfg.WarmUp > 0 {
		select {
		case <-time.After(cfg.WarmUp):
		case <-ctx.Done():
			cancel()
			wg.Wait()
			return Result{}, ctx.Err()
		}
	}
	if sampler != nil {
		sampler.Start()
	}
	ctr.SetRecording(true)
	start := time.Now()
	select {
	case <-time.After(cfg.Measure):
	case <-ctx.Done():
	}
	ctr.SetRecording(false)
	elapsed := time.Since(start)
	if sampler != nil {
		sampler.Stop()
	}
	cancel()
	wg.Wait()

	return Result{Snapshot: ctr.Snapshot(), Elapsed: elapsed}, ctx.Err()
}

// client is one closed-loop worker: generate a transaction, run it,
// optionally retry on abort, repeat.
func client(ctx context.Context, db kv.DB, cfg Config, seed int64, ctr *metrics.Counters) {
	gen := NewGen(cfg, seed)
	value := gen.Value()

	for ctx.Err() == nil {
		// Pre-generate the transaction so retries replay the same ops.
		ops := gen.Txn()

		attempt := func() error {
			txCtx, cancel := context.WithTimeout(ctx, cfg.TxnTimeout)
			defer cancel()
			tx, err := db.Begin(txCtx)
			if err != nil {
				return err
			}
			reads, writes := 0, 0
			rest := ops
			if cfg.BatchReads {
				// The ops are pre-generated, so the leading reads form a
				// static read set: issue them as one batched GetMulti.
				lead := 0
				for lead < len(ops) && !ops[lead].Write {
					lead++
				}
				if lead > 1 {
					keys := make([]string, lead)
					for i := range keys {
						keys[i] = ops[i].Key
					}
					if _, err := kv.GetMulti(txCtx, tx, keys); err != nil {
						return err
					}
					reads += lead
					rest = ops[lead:]
				}
			}
			for _, o := range rest {
				if o.Write {
					err = tx.Write(txCtx, o.Key, value)
					writes++
				} else {
					_, err = tx.Read(txCtx, o.Key)
					reads++
				}
				if err != nil {
					return err
				}
			}
			if err := tx.Commit(txCtx); err != nil {
				return err
			}
			ctr.Ops(reads, writes)
			return nil
		}

		err := attempt()
		if err == nil {
			ctr.Commit()
			continue
		}
		ctr.Abort()
		// An uncertain commit may have committed: replaying it could
		// apply its writes twice.
		if cfg.Retry && ctx.Err() == nil && !errors.Is(err, kv.ErrUncertain) {
			ctr.Restart()
			if attempt() == nil {
				ctr.Commit()
			} else {
				ctr.Abort()
			}
		}
	}
}
