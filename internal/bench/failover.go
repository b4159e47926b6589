package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/strhash"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

// probeInterval paces the availability probe. Small enough to resolve a
// millisecond-scale failover dip, large enough that the probe itself is
// a negligible fraction of the cell's load.
const probeInterval = 100 * time.Microsecond

// RunFailoverCell measures what a partition-head failover costs the
// clients. It runs the cell's workload on a replicated cluster and,
// halfway through the measurement window, fails partition 0 over with
// cluster.Failover: routes flip, the old head is fenced and
// drained into its standby, the standby starts serving, the old head is
// crash-stopped. Throughout, a dedicated probe client runs read
// transactions against a partition-0 key outside the workload keyspace
// (so probe failures can only come from unavailability, never from
// lock conflicts); the gap the probe observes around the failover is
// the row's AvailabilityDipMS / RecoveryMS, and ReplicaLag is the
// standby's catch-up lag sampled under load just before the kill.
//
// The whole history — workload and probe — is recorded and
// serializability-checked; a violation fails the run. Committed
// transactions must survive the failover, not just availability.
func RunFailoverCell(ctx context.Context, cell Cell) (Row, error) {
	if cell.Replicas < 2 {
		cell.Replicas = 2
	}
	if cell.Keys == 0 {
		cell.Keys = 10000
	}
	rec := &history.Recorder{}
	c, err := cluster.Start(cluster.Config{
		Servers:  cell.Servers,
		Replicas: cell.Replicas,
		Bed:      cell.Bed,
		Recorder: rec,
		// Bound every client RPC: during the failover window calls to
		// the fenced or dying head must fail fast, not hang the probe.
		CallTimeout: 2 * time.Second,
		ServerConfig: server.Config{
			LockWaitTimeout:  500 * time.Millisecond,
			WriteLockTimeout: 2 * time.Second,
			ScanInterval:     250 * time.Millisecond,
		},
	})
	if err != nil {
		return Row{}, err
	}
	defer c.Close()

	// A partition-0 probe key outside the workload keyspace.
	probeKey := ""
	for i := cell.Keys; ; i++ {
		if strhash.Partition(workload.Key(i), cell.Servers) == 0 {
			probeKey = workload.Key(i)
			break
		}
	}
	probeCl, err := c.NewClient(cell.Mode, cell.Delta, nil)
	if err != nil {
		return Row{}, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Probe bookkeeping: the last success before the first failure, the
	// first failure, and the first success after it.
	var (
		probeMu    sync.Mutex
		lastOK     time.Time
		firstFail  time.Time
		firstAfter time.Time
		probeDown  bool
	)
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for runCtx.Err() == nil {
			ok := func() bool {
				tx, err := probeCl.Begin(runCtx)
				if err != nil {
					return false
				}
				if _, err := tx.Read(runCtx, probeKey); err != nil {
					_ = tx.Abort(runCtx)
					return false
				}
				return tx.Commit(runCtx) == nil
			}()
			// A failure caused by the run winding down (cancel fails the
			// in-flight attempt) is not an observation of the partition.
			if runCtx.Err() != nil {
				return
			}
			now := time.Now()
			probeMu.Lock()
			switch {
			case ok && !probeDown:
				lastOK = now
			case ok && probeDown && firstAfter.IsZero():
				firstAfter = now
			case !ok && !probeDown:
				probeDown = true
				firstFail = now
			}
			probeMu.Unlock()
			time.Sleep(probeInterval)
		}
	}()

	// Fail partition 0 over halfway through the measurement window.
	var (
		lag     int64
		failErr error
	)
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		select {
		case <-time.After(cell.WarmUp + cell.Measure/2):
		case <-runCtx.Done():
			failErr = runCtx.Err()
			return
		}
		lag = c.ReplicaLag(0)
		_, failErr = c.Failover(0)
	}()

	row, err := runOnCluster(ctx, c, cell, nil)
	if err != nil {
		return Row{}, err
	}
	<-killDone
	if failErr != nil {
		return Row{}, fmt.Errorf("bench: failover: %w", failErr)
	}

	// Give the probe a moment to observe the recovered partition, then
	// stop it. The wait must cover a couple of CallTimeouts: the probe
	// attempt straddling the kill can hang for the full 2s before it
	// fails, evicts the dead connection and retries on the new head.
	for i := 0; i < 6000; i++ {
		probeMu.Lock()
		recovered := !probeDown || !firstAfter.IsZero()
		probeMu.Unlock()
		if recovered {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	probeWG.Wait()

	probeMu.Lock()
	if probeDown {
		if firstAfter.IsZero() {
			probeMu.Unlock()
			return Row{}, fmt.Errorf("bench: probe never saw partition 0 recover after the failover")
		}
		row.AvailabilityDipMS = float64(firstAfter.Sub(lastOK)) / float64(time.Millisecond)
		row.RecoveryMS = float64(firstAfter.Sub(firstFail)) / float64(time.Millisecond)
	}
	row.ReplicaLag = lag
	probeMu.Unlock()

	if cerr := history.CheckCommits(rec.Commits()); cerr != nil {
		return Row{}, fmt.Errorf("bench: failover cell not serializable: %w", cerr)
	}
	return row, nil
}
