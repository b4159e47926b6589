package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/server"
)

func startReplicated(t *testing.T, servers, replicas int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{
		Servers:  servers,
		Replicas: replicas,
		Bed:      cluster.BedLocal,
		ServerConfig: server.Config{
			LockWaitTimeout:  300 * time.Millisecond,
			WriteLockTimeout: 500 * time.Millisecond,
			ScanInterval:     50 * time.Millisecond,
		},
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// commitAll writes every key through one transaction, retrying aborts.
func commitAll(t *testing.T, cl *client.Client, kvs map[string]string) {
	t.Helper()
	ctx := context.Background()
	for attempt := 0; ; attempt++ {
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for k, v := range kvs {
			if err := tx.Write(ctx, k, []byte(v)); err != nil {
				ok = false
				break
			}
		}
		if ok {
			if err := tx.Commit(ctx); err == nil {
				return
			}
		} else {
			_ = tx.Abort(ctx)
		}
		if attempt > 20 {
			t.Fatal("could not commit after 20 attempts")
		}
	}
}

// readBack reads k in a transaction of its own, retrying aborts: the
// first attempt after a failover may race the RPC layer's drop of the
// dead connection. It returns "" when no attempt commits.
func readBack(t *testing.T, cl *client.Client, k string) string {
	t.Helper()
	ctx := context.Background()
	for attempt := 0; attempt < 20; attempt++ {
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		v, err := tx.Read(ctx, k)
		if err != nil {
			_ = tx.Abort(ctx)
			continue
		}
		got := string(v) // v is lent until Commit returns
		if tx.Commit(ctx) == nil {
			return got
		}
	}
	return ""
}

// waitDrained polls until every partition's standbys report zero lag.
// The poll is iteration-bounded, not wall-clock-bounded, so a wedged
// pull loop fails the test instead of hanging it.
func waitDrained(t *testing.T, c *cluster.Cluster, partitions int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		drained := true
		for p := 0; p < partitions; p++ {
			if c.ReplicaLag(p) != 0 {
				drained = false
				break
			}
		}
		if drained {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("standbys never drained their upstream logs")
}

// TestFailoverServesCommittedData is the end-to-end check: commit
// through the heads, let the standbys catch up, fail a live head over,
// and read everything back through the new epoch.
func TestFailoverServesCommittedData(t *testing.T) {
	c := startReplicated(t, 2, 2)
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string]string{
		"alpha": "1", "beta": "2", "gamma": "3", "delta": "4",
		"epsilon": "5", "zeta": "6", "eta": "7", "theta": "8",
	}
	for k, v := range data {
		commitAll(t, cl, map[string]string{k: v})
	}
	waitDrained(t, c, 2)

	// Fail partition 0 over to its standby, the old head alive.
	v, err := c.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 {
		t.Fatalf("post-failover epoch = %d, want 2", v.Epoch)
	}

	// A fresh transaction re-routes to the promoted head and must see
	// every committed value; the first attempt may still abort if it
	// raced the RPC layer's drop of the dead connection.
	for k, want := range data {
		if got := readBack(t, cl, k); got != want {
			t.Fatalf("after failover, %q = %q, want %q", k, got, want)
		}
	}

	// New writes land on the promoted head too.
	commitAll(t, cl, map[string]string{"omega": "9"})
}

// TestPlannedHandoverFencesOldHead fails a still-running head over and
// checks that it is gone from the membership table, that exactly one
// promotion happened, and that fresh transactions (new routes) proceed.
// What a demoted head does to traffic still pinned to it is
// TestDemotedHeadFencesLocksAndServesFreezes in internal/server.
func TestPlannedHandoverFencesOldHead(t *testing.T) {
	c := startReplicated(t, 1, 2)
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, cl, map[string]string{"pre": "1"})
	waitDrained(t, c, 1)

	oldHead := c.Director().View(0).Head
	if _, err := c.Failover(0); err != nil {
		t.Fatal(err)
	}
	if c.ServerByAddr(oldHead) != nil {
		t.Fatalf("old head %s is still in the membership table after the failover", oldHead)
	}

	// Fresh transactions route to the new head and commit.
	commitAll(t, cl, map[string]string{"post": "2"})

	ctx := context.Background()
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplPromotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.ReplPromotions)
	}
	if st.ReplEpoch != 2 {
		t.Fatalf("epoch = %d, want 2", st.ReplEpoch)
	}
}

// TestFailoverWithoutRunningStandbyLeavesViewIntact: a failover whose
// elected standby is down must fail before it touches the director —
// routes, epoch and the head's role stay as they were and the partition
// keeps serving. The standby that is down is slot 0 itself, failed
// over, rejoined behind the new head and stopped again.
func TestFailoverWithoutRunningStandbyLeavesViewIntact(t *testing.T) {
	c := startReplicated(t, 1, 2)
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, cl, map[string]string{"pre": "1"})
	if _, err := c.Failover(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c, 1)
	if err := c.StopServer(0); err != nil {
		t.Fatal(err)
	}

	before := c.Director().View(0)
	if _, err := c.Failover(0); err == nil {
		t.Fatal("Failover onto a stopped standby succeeded")
	}
	after := c.Director().View(0)
	if after.Epoch != before.Epoch || after.Head != before.Head || len(after.Standbys) != len(before.Standbys) {
		t.Fatalf("view moved on a failed failover: %+v -> %+v", before, after)
	}
	if head := c.ServerByAddr(before.Head); head == nil || !head.IsHead() {
		t.Fatalf("head %s no longer serves the partition after a failed failover", before.Head)
	}
	commitAll(t, cl, map[string]string{"post": "2"})
}

// TestRestartRefusesCurrentHead: a stopped server the director still
// lists as its partition's head cannot rejoin as a standby of itself;
// RestartServer says so and starts nothing.
func TestRestartRefusesCurrentHead(t *testing.T) {
	c := startReplicated(t, 1, 2)
	head := c.Director().View(0).Head
	if err := c.StopServer(0); err != nil {
		t.Fatal(err)
	}
	err := c.RestartServer(0)
	if err == nil || !strings.Contains(err.Error(), "partition 0") {
		t.Fatalf("RestartServer of the current head: err = %v, want one naming partition 0", err)
	}
	if c.ServerByAddr(head) != nil {
		t.Fatal("the refused restart left a server running")
	}
	if v := c.Director().View(0); v.Head != head || len(v.Standbys) != 1 {
		t.Fatalf("the refused restart changed the view: %+v", v)
	}
}

// TestRestartAsReplicaCatchesUp fails over from a head that has already
// crashed (nothing to fence or drain), restarts the dead server — which
// rejoins as a standby of the new head — checks it drains the log, and
// fails over onto it in turn, this time from a live head.
func TestRestartAsReplicaCatchesUp(t *testing.T) {
	c := startReplicated(t, 1, 2)
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, cl, map[string]string{"a": "1", "b": "2"})
	waitDrained(t, c, 1)

	if err := c.StopServer(0); err != nil {
		t.Fatal(err)
	}
	v, err := c.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", v.Epoch)
	}
	commitAll(t, cl, map[string]string{"c": "3"})

	if err := c.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	v = c.Director().View(0)
	if len(v.Standbys) != 1 {
		t.Fatalf("standbys = %v, want the restarted server", v.Standbys)
	}
	waitDrained(t, c, 1)

	// The caught-up replica can now be promoted in turn and serves all
	// data, including what it missed while dead.
	v, err = c.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 3 {
		t.Fatalf("epoch = %d, want 3", v.Epoch)
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		if got := readBack(t, cl, k); got != want {
			t.Fatalf("after second failover, %q = %q, want %q", k, got, want)
		}
	}
}

// TestRestartedStandbyIsListedOnce: restarting a standby the director
// already lists — it was stopped, which leaves it in the view — must not
// list it again. Listed twice, the next failover promotes it with itself
// as its own standby, and the one after fences, drains against and
// crash-stops the very server it reports as head.
func TestRestartedStandbyIsListedOnce(t *testing.T) {
	c := startReplicated(t, 1, 2)
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, cl, map[string]string{"pre": "1"})
	slot := c.Addrs()[0]
	if _, err := c.Failover(0); err != nil {
		t.Fatal(err)
	}
	for _, step := range []func(int) error{c.RestartServer, c.StopServer, c.RestartServer} {
		if err := step(0); err != nil {
			t.Fatal(err)
		}
	}
	if v := c.Director().View(0); len(v.Standbys) != 1 || v.Standbys[0] != slot {
		t.Fatalf("view after the second restart = %+v, want %s listed once", v, slot)
	}

	v, err := c.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Head != slot || len(v.Standbys) != 0 {
		t.Fatalf("view after failing over onto %s = %+v", slot, v)
	}
	if _, err := c.Failover(0); err == nil || !strings.Contains(err.Error(), "no standby to promote") {
		t.Fatalf("Failover of a partition with no standby: err = %v", err)
	}
	if head := c.ServerByAddr(slot); head == nil || !head.IsHead() {
		t.Fatalf("head %s is no longer running after the refused failover", slot)
	}
	if got := readBack(t, cl, "pre"); got != "1" {
		t.Fatalf("after both failovers, \"pre\" = %q, want \"1\"", got)
	}
}
