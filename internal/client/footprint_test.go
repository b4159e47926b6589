package client

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// footprintBed starts three Mem servers and a coordinator in mode.
func footprintBed(t *testing.T, mode Mode) *Client {
	t.Helper()
	n := transport.NewMem(transport.LatencyModel{})
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("s%d", i)
		srv, err := server.New(server.Config{Addr: addrs[i], Network: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	cl, err := New(Config{ID: 1, Servers: addrs, Network: n, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// begin starts a transaction: the engine's Txn, on the remote backend.
func begin(t *testing.T, cl *Client) *core.Txn {
	t.Helper()
	tx, err := cl.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tx.(*core.Txn)
}

// backendOf returns the remote backend tx runs on: the allocation tx is
// the first field of.
func backendOf(tx *core.Txn) *remoteTxn { return (*remoteTxn)(unsafe.Pointer(tx)) }

// TestFootprintReadAfterWrite: a key the transaction wrote is read from
// the write buffer — no read lock, no second entry, not a recorded read.
func TestFootprintReadAfterWrite(t *testing.T) {
	for _, mode := range []Mode{ModeTILEarly, ModeTO} {
		t.Run(mode.String(), func(t *testing.T) {
			cl := footprintBed(t, mode)
			ctx := context.Background()
			tx := begin(t, cl)
			if err := tx.Write(ctx, "a", []byte("mine")); err != nil {
				t.Fatal(err)
			}
			got, err := tx.Read(ctx, "a")
			if err != nil || string(got) != "mine" {
				t.Fatalf("Read after Write = %q, %v", got, err)
			}
			multi, err := tx.GetMulti(ctx, []string{"a", "a"})
			if err != nil || len(multi) != 1 || string(multi["a"]) != "mine" {
				t.Fatalf("GetMulti after Write = %v, %v", multi, err)
			}
			_, read := tx.ReadOf(0)
			_, written := tx.WriteOf(0)
			if tx.Len() != 1 || read || !written {
				t.Fatalf("footprint after write+reads of one key: %d keys, read=%v written=%v", tx.Len(), read, written)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFootprintGetMultiDuplicates: duplicate keys share one entry, one
// read lock request and one result.
func TestFootprintGetMultiDuplicates(t *testing.T) {
	cl := footprintBed(t, ModeTILEarly)
	ctx := context.Background()
	seed := begin(t, cl)
	for _, k := range []string{"a", "b"} {
		if err := seed.Write(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	tx := begin(t, cl)
	got, err := tx.GetMulti(ctx, []string{"b", "a", "b", "b", "a", "none"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["a"]) != "v-a" || string(got["b"]) != "v-b" {
		t.Fatalf("GetMulti = %v", got)
	}
	if v, ok := got["none"]; !ok || v != nil {
		t.Fatalf("missing key must be present and ⊥, got %v %v", v, ok)
	}
	var order []string
	remote := backendOf(tx)
	for i := int32(0); int(i) < tx.Len(); i++ {
		_, read := tx.ReadOf(i)
		_, written := tx.WriteOf(i)
		if !read || written || remote.keys[i].locked.IsEmpty() {
			t.Fatalf("entry %q: read=%v written=%v locked=%v", tx.KeyName(i), read, written, remote.keys[i].locked)
		}
		order = append(order, tx.KeyName(i))
	}
	if fmt.Sprint(order) != "[b a none]" {
		t.Fatalf("footprint order %v, want first-mention order [b a none]", order)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFootprintWriteOrder: writes are listed once, in order of first
// write — also for a key that was read (and so entered the footprint)
// before an earlier-written one.
func TestFootprintWriteOrder(t *testing.T) {
	for _, mode := range []Mode{ModeTILEarly, ModeTO, ModePessimistic} {
		t.Run(mode.String(), func(t *testing.T) {
			cl := footprintBed(t, mode)
			ctx := context.Background()
			tx := begin(t, cl)
			if _, err := tx.Read(ctx, "r"); err != nil { // read first, written last
				t.Fatal(err)
			}
			steps := []struct{ key, val string }{{"a", "a1"}, {"c", "c1"}, {"a", "a2"}, {"r", "r1"}}
			for i, s := range steps {
				if err := tx.Write(ctx, s.key, []byte(s.val)); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if _, err := tx.Read(ctx, "b"); err != nil { // a read between the writes
						t.Fatal(err)
					}
				}
			}
			if got := fmt.Sprint(tx.WriteKeys()); got != "[a c r]" {
				t.Fatalf("write order %s, want [a c r]", got)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}

			check := begin(t, cl)
			got, err := check.GetMulti(ctx, []string{"a", "c", "r"})
			if err != nil {
				t.Fatal(err)
			}
			for k, want := range map[string]string{"a": "a2", "c": "c1", "r": "r1"} {
				if string(got[k]) != want {
					t.Fatalf("%s = %q after commit, want %q", k, got[k], want)
				}
			}
			_ = check.Abort(ctx)
		})
	}
}

// TestFootprintLargeTransaction runs the preload shape — 100 writes in
// one timestamp-ordering transaction — and a 100-key read-back: both
// outgrow the inline footprint, the engine's and the backend's (that
// the engine then finds keys through its index is core's
// TestFootprintIndex).
func TestFootprintLargeTransaction(t *testing.T) {
	const nkeys = 100
	cl := footprintBed(t, ModeTO)
	ctx := context.Background()
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}

	load := begin(t, cl)
	for round := 0; round < 2; round++ { // the second round overwrites in place
		for i, k := range keys {
			if err := load.Write(ctx, k, []byte(fmt.Sprintf("v%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if load.Len() != nkeys || len(load.WriteKeys()) != nkeys {
		t.Fatalf("foot=%d writeOrder=%d, want %d each", load.Len(), len(load.WriteKeys()), nkeys)
	}
	for i, k := range keys {
		if got := load.KeyName(int32(i)); got != k {
			t.Fatalf("position %d holds %q, want %q", i, got, k)
		}
	}
	if err := load.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	rd := begin(t, cl)
	for i, k := range keys { // sequential reads: one entry each, in order
		v, err := rd.Read(ctx, k)
		if want := fmt.Sprintf("v1-%d", i); err != nil || string(v) != want {
			t.Fatalf("Read(%q) = %q, %v; want %q", k, v, err, want)
		}
	}
	got, err := rd.GetMulti(ctx, keys) // re-read as one batch, past the inline scratch
	if err != nil || len(got) != nkeys {
		t.Fatalf("GetMulti: %d values, %v", len(got), err)
	}
	if remote := backendOf(rd); rd.Len() != nkeys || len(remote.keys) != nkeys {
		t.Fatalf("read-back footprint: %d entries, %d at the backend", rd.Len(), len(remote.keys))
	}
	if err := rd.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
