package faultbed

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestScenarioMatrix runs every matrix scenario once and requires a
// serializable history from each — including the acceptance scenario,
// which partitions a server mid-run and then crash-restarts it. The
// matrix runs on the virtual timeline: modeled delays cost no wall
// clock, and TestH13SameSeedSameTranscript separately proves virtual
// runs are byte-identical to wall-clock ones, so no coverage is lost
// by the speedup.
func TestScenarioMatrix(t *testing.T) {
	for _, s := range Matrix() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunVirtual(s)
			if err != nil {
				t.Fatalf("harness: %v\nevents:\n%s\ntranscript:\n%s", err, res.Events, res.Transcript)
			}
			t.Log(res.Summary())
			if res.CheckErr != nil {
				t.Fatalf("serializability violation: %v\nevents:\n%s\ntranscript:\n%s",
					res.CheckErr, res.Events, res.Transcript)
			}
			if res.Commits == 0 {
				t.Fatalf("nothing committed:\n%s", res.Transcript)
			}
			// Unreplicated fault schedules must visibly bite. Replicated
			// ones assert the opposite claim: the settle+drain handover
			// hides scheduled head crashes behind a promotion, so the
			// proof the faults ran is the event log, not aborts.
			if len(s.Events) > 0 && res.Aborts == 0 && s.Replicas <= 1 {
				t.Fatalf("fault schedule caused no aborts — the faults did not bite:\n%s", res.Transcript)
			}
			if s.Replicas > 1 && !strings.Contains(res.Events, "promote") {
				t.Fatalf("replicated scenario logged no promotion:\n%s", res.Events)
			}
		})
	}
}

// TestBigTopologyVirtual runs the extras-only big-topology scenario:
// 256 servers under chaotic client links, a cluster size the wall-clock
// runner could not afford in CI. The wall budget assertion is the
// tentpole claim — a thousand-component topology's fault window costs
// seconds, not minutes, because every modeled delay is a timeline jump.
func TestBigTopologyVirtual(t *testing.T) {
	s, err := Find("big-topology")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := RunVirtual(s)
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("harness: %v\nevents:\n%s", err, res.Events)
	}
	t.Logf("%d servers, %d txns in %v wall: %s", s.Servers, s.Txns, wall, res.Summary())
	if res.CheckErr != nil {
		t.Fatalf("serializability violation: %v\ntranscript:\n%s", res.CheckErr, res.Transcript)
	}
	if res.Commits == 0 {
		t.Fatalf("nothing committed:\n%s", res.Transcript)
	}
	if budget := 30 * time.Second; wall > budget {
		t.Fatalf("big-topology took %v wall, over the %v budget", wall, budget)
	}
}

// TestH13SameSeedSameTranscript is the determinism invariant: running a
// transcript-asserted scenario twice with the same seed must reproduce
// the commit/abort transcript, the fault log and the event log byte for
// byte. Both runs are on the virtual timeline, where the invariant
// holds by construction of the bed and not by the machine keeping up:
// no asserted comparison reads the wall clock. (Wall-clock runs used to
// be compared too, and diverged whenever a sandbox stall outlasted the
// bed's 60 ms call timeout — a property of the sandbox, not of the
// system.) One wall-clock run per scenario remains, held to
// serializability only: the bed must still work on real timers. It
// exercises both flavors of nondeterminism source — stochastic frame
// chaos ("chaos"), scheduled partition plus crash-restart
// ("partition-crash", the unreplicated acceptance scenario), and
// replicated failover with promotions and a catch-up rejoin
// ("failover").
func TestH13SameSeedSameTranscript(t *testing.T) {
	for _, name := range []string{"chaos", "partition-crash", "failover"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := Find(name)
			if err != nil {
				t.Fatal(err)
			}
			if !s.AssertTranscript {
				t.Fatalf("scenario %s is not transcript-asserted", name)
			}
			first, err := RunVirtual(s)
			if err != nil {
				t.Fatal(err)
			}
			second, err := RunVirtual(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, cmp := range []struct{ what, a, b string }{
				{"transcript", first.Transcript, second.Transcript},
				{"fault log", first.FaultLog, second.FaultLog},
				{"event log", first.Events, second.Events},
			} {
				if cmp.a != cmp.b {
					t.Errorf("same seed, different %s:\n--- run 1\n%s--- run 2\n%s", cmp.what, cmp.a, cmp.b)
				}
			}
			if first.CheckErr != nil {
				t.Errorf("serializability violation: %v", first.CheckErr)
			}
			wall, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if wall.CheckErr != nil {
				t.Errorf("serializability violation on wall-clock timers: %v", wall.CheckErr)
			}
		})
	}
}

// TestSeedSweepVirtual is the promoted multi-seed soak: every matrix
// scenario across many seeds on the virtual timeline, asserting a
// serializable history per seed, and — for the transcript-asserted
// scenarios — running each seed twice and requiring byte-identical
// transcripts and fault logs. (The monkey scenario is exempt from the
// determinism compare by design: its connection resets make frame
// order schedule-dependent, which is the very property it exists to
// exercise.) Before virtual time this breadth was an opt-in 45-minute
// workflow_dispatch job; at zero wall cost per modeled second it is
// tier-1. -short trims the sweep for quick local iteration.
func TestSeedSweepVirtual(t *testing.T) {
	seeds := int64(32)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, base := range Matrix() {
				s := base
				s.Seed = seed
				first, err := RunVirtual(s)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if first.CheckErr != nil {
					t.Fatalf("%s: serializability violation: %v\n%s", s.Name, first.CheckErr, first.Transcript)
				}
				if !s.AssertTranscript {
					continue
				}
				second, err := RunVirtual(s)
				if err != nil {
					t.Fatalf("%s (rerun): %v", s.Name, err)
				}
				if first.FaultLog != second.FaultLog {
					t.Errorf("%s: same seed, different fault logs:\n--- run 1\n%s--- run 2\n%s",
						s.Name, first.FaultLog, second.FaultLog)
				}
				if first.Transcript != second.Transcript {
					t.Errorf("%s: same seed, different transcripts:\n--- run 1\n%s--- run 2\n%s",
						s.Name, first.Transcript, second.Transcript)
				}
			}
		})
	}
}
