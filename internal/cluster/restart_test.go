package cluster_test

import (
	"context"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/workload"
)

// TestClientReconnectsAfterServerRestart is the crash-restart
// reachability contract: a coordinator whose pooled connection died
// with a crashed server must evict it and redial once the server is
// back — without a new client, and without the restarted server
// resurrecting any pre-crash state.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		Servers:     1,
		Bed:         cluster.BedLocal,
		CallTimeout: 200 * time.Millisecond,
		ServerConfig: server.Config{
			LockWaitTimeout:  100 * time.Millisecond,
			WriteLockTimeout: 300 * time.Millisecond,
			ScanInterval:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := c.NewClient(client.ModeTILEarly, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	write := func(key string, val []byte) error {
		tx, err := cl.Begin(ctx)
		if err != nil {
			return err
		}
		if err := tx.Write(ctx, key, val); err != nil {
			return err
		}
		return tx.Commit(ctx)
	}
	key := workload.Key(1)
	if err := write(key, []byte("before")); err != nil {
		t.Fatal(err)
	}

	if err := c.StopServer(0); err != nil {
		t.Fatal(err)
	}
	if c.ServerByAddr(c.Addrs()[0]) != nil {
		t.Fatal("server reported running after StopServer")
	}
	// The dead server must surface as an abort, not a hang.
	if err := write(key, []byte("down")); err == nil {
		t.Fatal("write against a crashed server committed")
	}
	if err := c.StopServer(0); err == nil {
		t.Fatal("double stop not rejected")
	}

	if err := c.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(0); err == nil {
		t.Fatal("double restart not rejected")
	}
	// Same client, same pooled connection slot: the broken conn must
	// have been evicted so this redials the restarted server.
	tx, err := cl.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(ctx, key)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if got != nil {
		t.Fatalf("restarted server served pre-crash state %q", got)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := write(key, []byte("after")); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
}

// TestRestartUnknownServer exercises the index guards.
func TestRestartUnknownServer(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: 1, Bed: cluster.BedLocal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.StopServer(3); err == nil {
		t.Fatal("StopServer(3) on a 1-server cluster succeeded")
	}
	if err := c.RestartServer(-1); err == nil {
		t.Fatal("RestartServer(-1) succeeded")
	}
}
