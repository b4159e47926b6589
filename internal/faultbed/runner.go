package faultbed

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/rpc"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

// Harness timing. Kept small so fault windows cost timeouts, not
// seconds, while staying far above the in-memory network's RTT (sub-ms
// even with chaos delay spikes). The coordinators in the matrix run
// TIL modes, whose lock requests never park server-side, so CallTimeout
// does not need to cover LockWaitTimeout.
const (
	callTimeout      = 60 * time.Millisecond
	lockWaitTimeout  = 50 * time.Millisecond
	writeLockTimeout = 300 * time.Millisecond
	scanInterval     = 50 * time.Millisecond
	peerCallTimeout  = 100 * time.Millisecond
	settleTimeout    = 10 * time.Second
	settlePoll       = 10 * time.Millisecond
)

// Result is one scenario run's full observable output.
type Result struct {
	// Scenario is the (defaulted) scenario that ran.
	Scenario Scenario
	// Transcript has one line per driven transaction: index, outcome
	// and attempt count. It deliberately excludes timestamps — commit
	// timestamps come from the wall clock — so that for deterministic
	// scenarios the transcript is a pure function of the seed (H13).
	Transcript string
	// Events logs the applied fault schedule.
	Events string
	// FaultLog is the chaos layer's per-link fault trace.
	FaultLog string
	// Commits, Aborts and Uncertains count final per-transaction
	// outcomes (retries collapse into one outcome).
	Commits, Aborts, Uncertains int
	// CheckedCommits is the number of commits the serializability
	// checker validated after resolving uncertain ("maybe") commits
	// from observation; DroppedMaybes is how many unobserved maybes it
	// set aside.
	CheckedCommits, DroppedMaybes int
	// CheckErr is the serializability verdict: nil, or the first
	// violation found in the MVSG of the recorded history.
	CheckErr error
}

// Summary renders the headline counts and ends with a digest of the
// three H13-compared outputs, so "byte-identical" can be checked
// between two commits by comparing eight hex digits.
func (r Result) Summary() string {
	verdict := "serializable"
	if r.CheckErr != nil {
		verdict = "VIOLATION: " + r.CheckErr.Error()
	}
	sum := sha256.Sum256([]byte(r.Transcript + "\x00" + r.Events + "\x00" + r.FaultLog))
	return fmt.Sprintf("%s: %d commits, %d aborts, %d uncertain (checked %d, dropped %d unobserved maybes) — %s, digest %x",
		r.Scenario.Name, r.Commits, r.Aborts, r.Uncertains, r.CheckedCommits, r.DroppedMaybes, verdict, sum[:4])
}

// runner holds one scenario run's moving parts.
type runner struct {
	s      Scenario
	timers clock.Timers
	net    *Net
	clus   *cluster.Cluster
	rec    *history.Recorder
	// work is the chaos-facing workload coordinator (client-1); ctrl is
	// the fault-free control-plane coordinator (client-2) used for
	// settle barriers and recovery writes.
	work kv.DB
	ctrl *client.Client

	// shadow mirrors the last definitely-committed value of every key,
	// maintained from commit outcomes only (uncertain outcomes do not
	// update it). It plays the role of the backup a recovering server
	// would restore from.
	shadow map[string][]byte

	transcript strings.Builder
	events     strings.Builder
}

// Run executes one scenario in wall-clock time and returns its result.
// The returned error reports harness failures (a server that would not
// start, a settle barrier that timed out); serializability violations
// are reported in Result.CheckErr so callers can render the transcript
// alongside.
func Run(s Scenario) (Result, error) {
	return run(s, clock.SystemTimers{})
}

// RunVirtual executes one scenario on a fresh virtual timeline: every
// modeled delay — link latency, chaos delay spikes, lock-wait budgets,
// scanner periods, settle polls, retry backoffs — resolves by timeline
// jump, so a scenario full of timeout windows completes in milliseconds
// of wall clock. Transcripts are byte-identical to Run's for the same
// scenario (H13 extended: the virtual/wall mode switch is not allowed
// to change any observable output).
func RunVirtual(s Scenario) (Result, error) {
	v := clock.NewVirtual()
	v.Register() // the driver goroutine is the timeline's root actor
	defer v.Unregister()
	return run(s, v)
}

func run(s Scenario, timers clock.Timers) (Result, error) {
	s = s.withDefaults()
	chaos := s.Chaos
	if len(chaos.Endpoints) == 0 {
		// Aim chaos at the workload coordinator's links only: the
		// control plane (settle barriers, recovery writes) must stay
		// reliable, like an operator console on a separate network.
		chaos.Endpoints = []string{"client-1"}
	}
	net := New(Config{
		Model:  transport.LatencyModel{Base: 100 * time.Microsecond, Jitter: 50 * time.Microsecond},
		Seed:   s.Seed,
		Chaos:  chaos,
		Timers: timers,
	})
	rec := &history.Recorder{}
	clus, err := cluster.Start(cluster.Config{
		Servers:  s.Servers,
		Replicas: s.Replicas,
		Network:  net,
		Recorder: rec,
		// The deadlock detector's timer-driven polls would consume
		// chaos coins nondeterministically; lock requests in TIL modes
		// never park, so the lock-wait timeout alone is enough here.
		DeadlockPoll: -1,
		CallTimeout:  callTimeout,
		Timers:       timers,
		ServerConfig: server.Config{
			LockWaitTimeout:  lockWaitTimeout,
			WriteLockTimeout: writeLockTimeout,
			ScanInterval:     scanInterval,
			PeerCallTimeout:  peerCallTimeout,
		},
	})
	if err != nil {
		return Result{}, err
	}
	defer clus.Close()

	r := &runner{s: s, timers: timers, net: net, clus: clus, rec: rec, shadow: make(map[string][]byte)}
	// Client ids are allocated in order: the workload coordinator gets
	// "client-1" (the chaos target), the control client "client-2".
	// Both stamp transactions from the run's timeline (not the raw
	// system clock): under virtual time, timestamp spacing must follow
	// the virtual clock or successive TIL intervals would overlap locks
	// frozen microseconds of wall clock earlier.
	src := clock.TimersSource{T: timers}
	work, err := clus.NewClient(s.Mode, s.Delta, src)
	if err != nil {
		return Result{}, err
	}
	r.work = work
	ctrl, err := clus.NewClient(client.ModeTILEarly, 0, src)
	if err != nil {
		return Result{}, err
	}
	r.ctrl = ctrl

	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].BeforeTxn < events[j].BeforeTxn })

	gen := newOpGen(s)
	res := Result{Scenario: s}
	// pace separates successive transactions by more than the TIL
	// interval width Δ, so no transaction's interval can overlap locks
	// frozen by its predecessor. Wall runs get this spacing for free
	// from real execution overhead; sleeping it out explicitly makes
	// the spacing part of the schedule — identical in both modes —
	// instead of an accident of wall-clock speed.
	delta := s.Delta
	if delta == 0 {
		delta = 5000 // the client's default Δ, in microsecond ticks
	}
	pace := time.Duration(delta)*time.Microsecond + time.Millisecond
	next := 0
	for i := 0; i < s.Txns; i++ {
		for next < len(events) && events[next].BeforeTxn <= i {
			if err := r.apply(events[next]); err != nil {
				return res, err
			}
			next++
		}
		r.timers.Sleep(pace)
		ops := gen.txn(i)
		outcome, attempts := r.runTxn(ops, gen.value)
		fmt.Fprintf(&r.transcript, "t%03d %-17s a%d\n", i, outcome, attempts)
		switch outcome {
		case "commit":
			res.Commits++
			for _, o := range ops {
				if o.Write {
					r.shadow[o.Key] = gen.value
				}
			}
		case "uncertain":
			res.Uncertains++
		default:
			res.Aborts++
		}
	}

	res.Transcript = r.transcript.String()
	res.Events = r.events.String()
	res.FaultLog = net.FaultLog()
	commits := r.rec.Commits()
	included, dropped := history.ResolveMaybes(commits)
	res.CheckedCommits = len(included)
	res.DroppedMaybes = len(dropped)
	res.CheckErr = history.CheckCommits(commits)
	return res, nil
}

// apply executes one scheduled fault action.
func (r *runner) apply(ev Event) error {
	switch ev.Act {
	case ActPartition:
		r.net.Partition(ev.A, ev.B)
		r.eventf(ev, "partition %s <-> %s", ev.A, ev.B)
	case ActPartitionAsym:
		r.net.PartitionAsym(ev.A, ev.B)
		r.eventf(ev, "partition %s -> %s", ev.A, ev.B)
	case ActHeal:
		r.net.HealAll()
		if err := r.settle(); err != nil {
			return err
		}
		r.eventf(ev, "heal all + settle")
	case ActCrash:
		// Settle first so no in-flight freeze/release cast is racing
		// the crash: whether such a cast lands is a microsecond-scale
		// race the transcript must not depend on.
		if err := r.settle(); err != nil {
			return err
		}
		if err := r.clus.StopServer(ev.Server); err != nil {
			return err
		}
		r.eventf(ev, "crash server-%d", ev.Server)
	case ActRestart:
		if err := r.clus.RestartServer(ev.Server); err != nil {
			return err
		}
		if err := r.settle(); err != nil {
			return err
		}
		n, err := r.recoverServer(ev.Server)
		if err != nil {
			return err
		}
		r.eventf(ev, "restart server-%d + recover %d keys", ev.Server, n)
	case ActKillHead:
		// Settle only: the fence, the drain of the old head's log into
		// the standby and the crash-stop are cluster.Failover's own, the
		// same sequence that runs under live load.
		if err := r.settle(); err != nil {
			return err
		}
		d := r.clus.Director()
		if d == nil {
			return fmt.Errorf("faultbed: ActKillHead needs a replicated scenario (Replicas > 1)")
		}
		dead := d.View(ev.Server).Head
		v, err := r.clus.Failover(ev.Server)
		if err != nil {
			return err
		}
		r.eventf(ev, "kill head %s of partition %d; promote %s at epoch %d", dead, ev.Server, v.Head, v.Epoch)
	case ActRestartReplica:
		if err := r.clus.RestartServer(ev.Server); err != nil {
			return err
		}
		if err := r.drain(); err != nil {
			return err
		}
		r.eventf(ev, "restart server-%d as a replica of partition %d + drain", ev.Server, ev.Server)
	default:
		return fmt.Errorf("faultbed: unknown action %d", ev.Act)
	}
	return nil
}

func (r *runner) eventf(ev Event, format string, args ...any) {
	fmt.Fprintf(&r.events, "before t%03d: %s\n", ev.BeforeTxn, fmt.Sprintf(format, args...))
}

// settle blocks until every running server reports zero live
// transaction records, i.e. all cleanup casts have landed and the
// suspicion scanner has reaped whatever a fault window orphaned. Fault
// actions settle around their transitions so that the transactions that
// follow start against a quiescent cluster — the settle duration itself
// is wall-clock-dependent and therefore never recorded.
func (r *runner) settle() error {
	// Iteration-bounded rather than deadline-bounded: the retry budget
	// is a fixed count instead of a wall-clock read, so the watchdog
	// itself cannot become a hidden source of timing dependence (the
	// determinism analyzer forbids time.Now in this package).
	attempts := int(settleTimeout / settlePoll)
	var live int64
	for try := 0; try <= attempts; try++ {
		if try > 0 {
			r.timers.Sleep(settlePoll)
		}
		reachable := true
		live = 0
		// LiveAddrs rather than the fixed slot list: in replicated
		// scenarios the serving head may be a promoted standby that never
		// had a slot.
		for _, addr := range r.clus.LiveAddrs() {
			st, err := r.ctrl.ServerStats(context.Background(), addr)
			if err != nil {
				reachable = false
				break
			}
			live += st.LiveTxns
		}
		if reachable && live == 0 {
			return nil
		}
	}
	return fmt.Errorf("faultbed: cluster did not settle within %v (%d live txn records)", settleTimeout, live)
}

// drain blocks until every partition's standbys have applied everything
// their head has logged (cluster.ReplicaLag 0 partition-wide). Like
// settle it is iteration-bounded, and like settle its duration is
// wall-clock-dependent and never recorded — only the fact that the
// schedule passed the barrier is.
func (r *runner) drain() error {
	attempts := int(settleTimeout / settlePoll)
	for try := 0; try <= attempts; try++ {
		if try > 0 {
			r.timers.Sleep(settlePoll)
		}
		drained := true
		for p := 0; p < r.s.Servers; p++ {
			if r.clus.ReplicaLag(p) != 0 {
				drained = false
				break
			}
		}
		if drained {
			return nil
		}
	}
	return fmt.Errorf("faultbed: standbys did not drain within %v", settleTimeout)
}

// recoverServer re-writes, through the control client, the
// last-committed value of every key the restarted server owns —
// restore-from-backup in miniature, sourced from the shadow map. The
// recovery transaction is recorded in the history like any other
// commit, so the checker sees post-restart reads as reads of the
// recovery writes rather than impossible reads of versions that died
// with the crash.
func (r *runner) recoverServer(i int) (int, error) {
	keys := make([]string, 0, len(r.shadow))
	for k := range r.shadow {
		if strhash.Partition(k, r.s.Servers) == i {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return 0, nil
	}
	ctx := context.Background()
	for attempt := 1; attempt <= 5; attempt++ {
		tx, err := r.ctrl.Begin(ctx)
		if err != nil {
			return 0, err
		}
		err = func() error {
			for _, k := range keys {
				if err := tx.Write(ctx, k, r.shadow[k]); err != nil {
					return err
				}
			}
			return tx.Commit(ctx)
		}()
		if err == nil || tx.(*core.Txn).Committed() {
			return len(keys), nil
		}
		if errors.Is(err, kv.ErrUncertain) {
			// The control plane is fault-free; an uncertain recovery
			// means the harness itself is broken.
			return 0, fmt.Errorf("faultbed: recovery commit uncertain: %w", err)
		}
		r.timers.Sleep(20 * time.Millisecond)
	}
	return 0, fmt.Errorf("faultbed: recovery for server-%d kept aborting", i)
}

// runTxn drives one workload transaction to a final outcome, retrying
// retryable aborts under the scenario's policy. Retries replay the same
// operations; an uncertain outcome is never retried (the first attempt
// may have committed — blindly replaying it could apply its writes
// twice).
func (r *runner) runTxn(ops []workload.Op, value []byte) (outcome string, attempts int) {
	for attempt := 1; ; attempt++ {
		err := r.attempt(ops, value)
		if err == nil {
			return "commit", attempt
		}
		outcome, retryable := classify(err)
		if !retryable || attempt >= r.s.Retry.Attempts {
			return outcome, attempt
		}
		r.timers.Sleep(r.s.Retry.Backoff(attempt))
	}
}

// attempt runs the operations as one transaction. A commit whose only
// failure was in post-decision cleanup (the commitment object decided
// commit, then a cast of the commit's tail hit a broken connection)
// counts as committed: the decision is durable and the servers'
// suspicion path finishes the exposure.
func (r *runner) attempt(ops []workload.Op, value []byte) error {
	ctx := context.Background()
	tx, err := r.work.Begin(ctx)
	if err != nil {
		return err
	}
	for _, o := range ops {
		if o.Write {
			err = tx.Write(ctx, o.Key, value)
		} else {
			_, err = tx.Read(ctx, o.Key)
		}
		if err != nil {
			return err
		}
	}
	err = tx.Commit(ctx)
	if err != nil && tx.(*core.Txn).Committed() {
		return nil
	}
	return err
}

// classify maps a transaction error to a transcript outcome and whether
// it is worth retrying. Order matters: an abort caused by an
// unreachable server wraps both kv.ErrAborted and the transport error,
// and must not be misread as a data conflict.
func classify(err error) (outcome string, retryable bool) {
	switch {
	case errors.Is(err, kv.ErrUncertain):
		return "uncertain", false
	case errors.Is(err, kv.ErrDeadlock):
		return "abort:deadlock", true
	case rpc.IsRetryable(err) || errors.Is(err, context.DeadlineExceeded):
		return "abort:unreachable", true
	case errors.Is(err, kv.ErrAborted):
		return "abort:conflict", false
	default:
		return "abort:other", false
	}
}

// opGen generates each transaction's operations.
type opGen struct {
	s     Scenario
	gen   *workload.Gen
	value []byte
}

func newOpGen(s Scenario) *opGen {
	wcfg := s.Workload
	wcfg.Seed = s.Seed
	gen := workload.NewGen(wcfg, s.Seed)
	return &opGen{s: s, gen: gen, value: gen.Value()}
}

// txn returns transaction i's operations. Shared-key scenarios draw
// from the workload generator; disjoint scenarios give transaction i a
// private write block and a read block no transaction ever writes, so
// no two transactions contend and the commit/abort transcript is a pure
// function of the chaos coins.
func (g *opGen) txn(i int) []workload.Op {
	if !g.s.Disjoint {
		return g.gen.Txn()
	}
	n := g.s.Workload.OpsPerTxn
	ops := make([]workload.Op, n)
	for j := range ops {
		write := j >= n/2
		block := 2 * i
		if write {
			block = 2*i + 1
		}
		ops[j] = workload.Op{Key: workload.Key(block*n + j), Write: write}
	}
	return ops
}
