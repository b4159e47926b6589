package client_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// TestReadValuesLent: the coordinator copies every value it reads into a
// region of the transaction's pooled state and lends it to the
// transaction (kv.Txn): valid until Commit or Abort returns, never to be
// modified.
//
// Within one transaction, values of 0 B, 8 B, 1 KiB and 5 KiB and ⊥ are
// read through Read and through GetMulti. An append to each value must
// leave the others alone, as must about 200 KiB of further reads in the
// same transaction, which outgrow the region's first 32 KiB: every value
// read first must still be what was written, ⊥ nil and the empty value
// non-nil.
//
// Once Commit returns the loan is over. The next transaction on the
// client reuses the bytes — its values land where the last one's did,
// and a read-only transaction of values under 32 KiB allocates only its
// Txn — and the GetMulti map comes back empty. A 64 KiB value grows the
// region past 32 KiB, and the next transaction drops it rather than keep
// it in the pool.
func TestReadValuesLent(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	addrs := startServers(t, n, 3)
	cl, err := client.New(client.Config{ID: 1, Servers: addrs, Network: n, Mode: client.ModeTILEarly})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()

	pattern := func(size int, seed byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	keys := []string{"empty", "8B", "1KiB", "5KiB", "bottom"}
	want := map[string][]byte{
		"empty":  {},
		"8B":     pattern(8, 'a'),
		"1KiB":   pattern(1<<10, 'b'),
		"5KiB":   pattern(5<<10, 'c'),
		"bottom": nil,
		"64KiB":  pattern(64<<10, 'd'),
	}
	begin := func() kv.Txn {
		t.Helper()
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	commit := func(tx kv.Txn) {
		t.Helper()
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	tx := begin()
	for _, k := range append(keys[:4:4], "64KiB") {
		if err := tx.Write(ctx, k, bytes.Clone(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)

	type read struct {
		how, key string
		got      []byte
	}
	// readAll reads every key through Read and then through GetMulti,
	// appending what it read to reads.
	readAll := func(tx kv.Txn, reads []read) ([]read, map[string][]byte) {
		t.Helper()
		for _, k := range keys {
			v, err := tx.Read(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			reads = append(reads, read{"Read", k, v})
		}
		m, err := kv.GetMulti(ctx, tx, keys)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			reads = append(reads, read{"GetMulti", k, m[k]})
		}
		return reads, m
	}
	check := func(when string, reads []read) {
		t.Helper()
		for _, r := range reads {
			w := want[r.key]
			switch {
			case w == nil && r.got != nil:
				t.Errorf("%s: %s of ⊥ at %q is %q, want nil", when, r.how, r.key, r.got)
			case w != nil && r.got == nil:
				t.Errorf("%s: %s of %q is nil, want a non-nil %d-byte value", when, r.how, r.key, len(w))
			case !bytes.Equal(r.got, w):
				t.Errorf("%s: %s of %q changed: %d bytes, %d of them differ from the %d written",
					when, r.how, r.key, len(r.got), differing(r.got, w), len(w))
			}
		}
	}

	tx = begin()
	reads, _ := readAll(tx, nil)
	check("as read", reads)
	for _, r := range reads {
		if r.got != nil {
			_ = append(r.got, 0xff, 0xff)
		}
	}
	check("after an append to each value", reads)
	for range 16 { // 16 × 12.3 KiB
		readAll(tx, nil)
	}
	check("after 200 KiB more reads in the transaction", reads)
	commit(tx)

	if raceEnabled {
		// The pool may drop a scratch under the race detector, so which
		// storage the next transaction gets proves nothing there.
		t.Skip("storage reuse across transactions is not deterministic under the race detector")
	}
	// A sync.Pool keeps its entries per P: on one P, each transaction
	// takes the scratch the last one handed back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// lentTxn reads every key in a transaction of its own, checks what it
	// read, commits, and returns the 8-byte value's first Read and the
	// GetMulti map, both lent to a transaction that has ended. What it
	// read goes to buf, so that the test's own bookkeeping allocates
	// nothing.
	buf := make([]read, 0, 2*len(keys))
	lentTxn := func() (*byte, map[string][]byte) {
		tx := begin()
		var m map[string][]byte
		buf, m = readAll(tx, buf[:0])
		check("in a transaction of its own", buf)
		commit(tx)
		return &buf[1].got[0], m
	}
	first, m := lentTxn()
	if len(m) != 0 {
		t.Errorf("GetMulti's map holds %d entries once Commit returns, want it empty", len(m))
	}
	if again, _ := lentTxn(); again != first {
		t.Errorf("the next transaction's values are not where the last one's were: its region was not reused")
	}
	if avg := testing.AllocsPerRun(100, func() { lentTxn() }); avg != 1 {
		t.Errorf("read-only transaction of values under 32 KiB: %v allocations, want exactly 1 (the Txn)", avg)
	}

	tx = begin()
	big, err := tx.Read(ctx, "64KiB")
	if err != nil {
		t.Fatal(err)
	}
	check("as read", []read{{"Read", "64KiB", big}})
	commit(tx)
	// big keeps the grown region alive, so a region allocated anew
	// cannot lie where it did.
	if next, _ := lentTxn(); next == &big[0] {
		t.Errorf("the region a 64 KiB value grew was kept for the next transaction, want it dropped")
	}
	runtime.KeepAlive(big)
}

// differing counts the positions where a and b differ, over the shorter.
func differing(a, b []byte) int {
	d := 0
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}
