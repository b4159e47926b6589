package faultbed

import (
	"fmt"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

// Action is one scripted fault transition.
type Action uint8

// Scenario actions. All fire at transaction boundaries — between the
// completion of one workload transaction and the submission of the
// next — so a fault window's membership is a pure function of the
// schedule, not of timing.
const (
	// ActPartition cuts both directions between endpoints A and B
	// ("*" is a wildcard).
	ActPartition Action = iota + 1
	// ActPartitionAsym cuts only the A->B direction.
	ActPartitionAsym
	// ActHeal removes every partition rule, then waits for the
	// cluster to settle (all servers report zero live transactions) so
	// post-heal transactions start from a quiescent state.
	ActHeal
	// ActCrash waits for the cluster to settle, then crash-stops
	// server Server: connections break, state is lost.
	ActCrash
	// ActRestart restarts server Server empty on its old address,
	// waits for the survivors to settle, then runs a recovery
	// transaction through the control client re-writing every
	// committed key the crashed server owned (restore-from-backup in
	// miniature) — without it, the restarted server would serve stale
	// or initial versions of keys whose newer versions died with it,
	// and the checker would report the resulting fractured reads.
	ActRestart
	// ActKillHead (replicated scenarios only) settles, then fails
	// partition Server over with cluster.Failover: the head is fenced,
	// its log drained into the first standby, the standby promoted at
	// the next epoch and the old head crash-stopped. The barrier that
	// makes the handover lossless is the product's own, the one that
	// runs under live load; the settle in front of it only keeps the
	// schedule deterministic. No recovery transaction is needed —
	// replication, not restore-from-backup, carries the data across
	// the crash.
	ActKillHead
	// ActRestartReplica (replicated scenarios only) restarts crashed
	// server Server on its old address as a catching-up standby of
	// partition Server's current head — it snapshots, tails the log,
	// and joins the chain — then waits for it to drain so a later
	// ActKillHead can promote it.
	ActRestartReplica
)

// Event schedules one action before the transaction with index
// BeforeTxn is submitted.
type Event struct {
	BeforeTxn int
	Act       Action
	// A, B are the partition endpoints (ActPartition/ActPartitionAsym).
	A, B string
	// Server is the target server index (ActCrash/ActRestart).
	Server int
}

// Scenario is one workload × fault-schedule combination.
type Scenario struct {
	// Name identifies the scenario in the matrix and the CLI.
	Name string
	// Note is a one-line description.
	Note string
	// Seed drives every random stream of the run: network jitter,
	// chaos coins, and the workload generator.
	Seed int64
	// Servers is the cluster size. Default 3.
	Servers int
	// Replicas is the per-partition replication factor (see
	// cluster.Config.Replicas). Values <= 1 run unreplicated; scenarios
	// using ActKillHead/ActRestartReplica need at least 2.
	Replicas int
	// Txns is the number of workload transactions driven. Default 40.
	Txns int
	// Mode is the coordinator's concurrency control strategy. The zero
	// value is ModeTILEarly. Transcript-asserted scenarios should keep it:
	// late-point commit timestamps land near the top of the interval,
	// where overlap with the next transaction's interval — and with it
	// the conflict outcome — depends on wall-clock spacing.
	Mode client.Mode
	// Delta is the MVTIL interval width in microsecond ticks; zero
	// keeps the client default.
	Delta int64
	// Workload shapes the generated transactions (OpsPerTxn, Keys,
	// WriteFraction, ValueSize, Dist are used).
	Workload workload.Config
	// Disjoint switches the generator to per-transaction disjoint key
	// blocks: transaction i reads keys it never writes and writes keys
	// no other transaction touches. With no key overlap there are no
	// lock conflicts, so the commit/abort transcript is a pure
	// function of the chaos coins — this is what makes a scenario with
	// stochastic frame faults transcript-assertable. Shared-key
	// scenarios exercise real data flow instead and keep chaos off.
	Disjoint bool
	// Chaos configures stochastic per-frame faults; the runner aims it
	// at the workload client's links only.
	Chaos Chaos
	// Events is the fault schedule, ordered by BeforeTxn.
	Events []Event
	// Retry is the restart policy each transaction runs under
	// (kv.Retry.Run). Zero Attempts takes the default: two attempts,
	// the retry after a 10 ms pause.
	Retry kv.Retry
	// AssertTranscript marks the scenario as H13-deterministic: two
	// runs with the same seed must produce byte-identical transcripts,
	// fault logs and event logs. Scenarios whose outcomes race against
	// wall-clock maintenance (shared keys under stochastic chaos)
	// leave this false and are serializability-checked only.
	AssertTranscript bool
}

// withDefaults fills zero fields.
func (s Scenario) withDefaults() Scenario {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Servers == 0 {
		s.Servers = 3
	}
	if s.Txns == 0 {
		s.Txns = 40
	}
	if s.Workload.OpsPerTxn == 0 {
		s.Workload.OpsPerTxn = 6
	}
	if s.Workload.Keys == 0 {
		s.Workload.Keys = 48
	}
	if s.Workload.WriteFraction == 0 {
		s.Workload.WriteFraction = 0.5
	}
	if s.Workload.ValueSize == 0 {
		s.Workload.ValueSize = 8
	}
	if s.Retry.Attempts == 0 {
		s.Retry = kv.Retry{Attempts: 2, Base: 10 * time.Millisecond, Max: 40 * time.Millisecond}
	}
	return s
}

// Matrix returns the scenario matrix: the named workload ×
// fault-schedule combinations checked by CI. Every scenario is
// serializability-checked; the AssertTranscript ones are additionally
// H13 determinism-checked (same seed ⇒ identical transcript).
func Matrix() []Scenario {
	return []Scenario{
		{
			Name:             "baseline",
			Note:             "no faults: every transaction commits",
			Txns:             32,
			AssertTranscript: true,
		},
		{
			Name:             "chaos",
			Note:             "seeded frame drop/dup/delay on the client's links, disjoint keys",
			Txns:             48,
			Disjoint:         true,
			Workload:         workload.Config{OpsPerTxn: 4},
			Chaos:            Chaos{Drop: 0.02, Dup: 0.04, Delay: 0.05},
			AssertTranscript: true,
		},
		{
			Name: "asym-partition",
			Note: "one-way partition client->server-2: requests vanish, a window of timeouts",
			Txns: 36,
			Events: []Event{
				{BeforeTxn: 10, Act: ActPartitionAsym, A: "client-1", B: "server-2"},
				{BeforeTxn: 18, Act: ActHeal},
			},
			AssertTranscript: true,
		},
		{
			Name: "crash-restart",
			Note: "crash one server mid-run, restart it empty, recover its keys",
			Txns: 40,
			Events: []Event{
				{BeforeTxn: 10, Act: ActCrash, Server: 0},
				{BeforeTxn: 20, Act: ActRestart, Server: 0},
			},
			AssertTranscript: true,
		},
		{
			Name: "partition-crash",
			Note: "partition one server, heal, then crash-restart it (the acceptance scenario)",
			Txns: 56,
			Events: []Event{
				{BeforeTxn: 12, Act: ActPartition, A: "server-1", B: "*"},
				{BeforeTxn: 22, Act: ActHeal},
				{BeforeTxn: 30, Act: ActCrash, Server: 1},
				{BeforeTxn: 40, Act: ActRestart, Server: 1},
			},
			AssertTranscript: true,
		},
		{
			Name:     "failover",
			Note:     "kill the partition-0 head, promote its standby, restart the dead server as a replica, fail over again onto it",
			Txns:     48,
			Replicas: 2,
			Events: []Event{
				{BeforeTxn: 12, Act: ActKillHead, Server: 0},
				{BeforeTxn: 24, Act: ActRestartReplica, Server: 0},
				{BeforeTxn: 36, Act: ActKillHead, Server: 0},
			},
			AssertTranscript: true,
		},
		{
			Name:             "monkey",
			Note:             "shared keys under drop/dup/delay/reset: serializability-checked only",
			Txns:             64,
			Chaos:            Chaos{Drop: 0.04, Dup: 0.04, Delay: 0.04, Reset: 0.01},
			Retry:            kv.Retry{Attempts: 3, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
			AssertTranscript: false,
		},
	}
}

// Extras returns named scenarios that are findable (CLI, targeted
// tests) but deliberately not part of the CI matrix: they are sized for
// virtual time, where a thousand timeout windows cost no wall clock,
// and would be prohibitively slow as wall-clock CI rows.
func Extras() []Scenario {
	return []Scenario{
		{
			Name:             "big-topology",
			Note:             "256 servers under chaotic client links — a topology only virtual time can afford",
			Servers:          256,
			Txns:             64,
			Disjoint:         true,
			Workload:         workload.Config{OpsPerTxn: 8, Keys: 2048},
			Chaos:            Chaos{Drop: 0.02, Dup: 0.04, Delay: 0.05},
			AssertTranscript: true,
		},
	}
}

// Find returns the named scenario, searching the matrix and the extras.
func Find(name string) (Scenario, error) {
	for _, s := range append(Matrix(), Extras()...) {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("faultbed: unknown scenario %q", name)
}
