// Command distributed runs the full distributed MVTL system of §7/§H in
// one process: three storage servers on the simulated "local test bed"
// network, several MVTIL coordinators executing transactions against the
// partitioned key space, the timestamp service purging old state, and a
// deliberately crashed coordinator whose orphaned locks the servers
// clean up via the commitment object (Lemma 4).
//
// A coordinator's transaction is the same core.Txn, governed by the same
// policy.TIL, as the in-process store's (examples/quickstart): only the
// backend differs — here the engine's lock steps travel to the servers
// as messages (internal/client) — so what commits, and at which
// timestamp, is the same in both.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/cluster"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/server"
)

func main() {
	ctx := context.Background()

	c, err := cluster.Start(cluster.Config{
		Servers: 3,
		Bed:     cluster.BedLocal,
		ServerConfig: server.Config{
			WriteLockTimeout: 500 * time.Millisecond,
			ScanInterval:     100 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("started %d storage servers: %v\n", len(c.Addrs()), c.Addrs())

	// A few coordinators run cross-partition transactions.
	cl, err := c.NewClient(client.ModeTILEarly, 5000, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tx, err := cl.Begin(ctx)
		if err != nil {
			log.Fatal(err)
		}
		// Each transaction touches keys on multiple servers.
		if err := tx.Write(ctx, fmt.Sprintf("user-%d", i), []byte("profile")); err != nil {
			log.Fatal(err)
		}
		if err := tx.Write(ctx, fmt.Sprintf("index-%d", i%3), []byte("entry")); err != nil {
			// contention on the shared index: retry once
			tx2, _ := cl.Begin(ctx)
			_ = tx2.Write(ctx, fmt.Sprintf("user-%d", i), []byte("profile"))
			_ = tx2.Write(ctx, fmt.Sprintf("index-%d", i%3), []byte("entry"))
			if err := tx2.Commit(ctx); err != nil {
				log.Fatalf("txn %d retry: %v", i, err)
			}
			continue
		}
		if err := tx.Commit(ctx); err != nil {
			log.Fatalf("txn %d: %v", i, err)
		}
	}
	fmt.Println("10 cross-partition transactions committed")

	// Read the whole user set back through the batched read path
	// (core.Txn.GetMulti, one batch through the policy): the remote
	// backend groups the static read set by owning server and fetches
	// it with one ReadLockBatch request per server. Reading these 10 keys one
	// Read at a time would cost 10 round trips; GetMulti costs at most
	// one per server — 3 here — and issues them in parallel, so the
	// wall-clock cost is a single network round trip.
	readTx, err := cl.Begin(ctx)
	if err != nil {
		log.Fatal(err)
	}
	userKeys := make([]string, 10)
	for i := range userKeys {
		userKeys[i] = fmt.Sprintf("user-%d", i)
	}
	profiles, err := kv.GetMulti(ctx, readTx, userKeys)
	if err != nil {
		log.Fatal(err)
	}
	if err := readTx.Commit(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %d user profiles batched: %d round trips instead of %d\n",
		len(profiles), len(c.Addrs()), len(userKeys))

	// Crash a coordinator mid-transaction: its write locks are orphaned.
	crasher, _ := c.NewClient(client.ModeTILEarly, 5000, nil)
	doomed, _ := crasher.Begin(ctx)
	if err := doomed.Write(ctx, "user-0", []byte("overwrite-attempt")); err != nil {
		log.Fatal(err)
	}
	_ = crasher.Close() // crash: no commit, no abort
	fmt.Println("coordinator crashed holding write locks on user-0 ...")

	// Another client can still write the key once the servers suspect
	// the dead coordinator and abort it through the commitment object.
	start := time.Now()
	for {
		tx, _ := cl.Begin(ctx)
		if err := tx.Write(ctx, "user-0", []byte("recovered")); err == nil {
			if err := tx.Commit(ctx); err == nil {
				break
			}
		} else {
			_ = tx.Abort(ctx)
		}
		if time.Since(start) > 10*time.Second {
			log.Fatal("recovery took too long")
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("servers aborted the dead coordinator; key writable again after %v\n",
		time.Since(start).Round(time.Millisecond))

	// State size before and after the timestamp service purges.
	before, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.StartTimestampService(100*time.Millisecond, 0); err != nil {
		log.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	after, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state before purge: %d versions, %d lock records\n", before.Versions, before.LockEntries)
	fmt.Printf("state after purge:  %d versions, %d lock records\n", after.Versions, after.LockEntries)
}
