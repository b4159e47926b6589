package client_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

// TestReadValuesOwned: the coordinator copies every value it reads into
// a region it carves up and never rewinds, so a value stays the caller's
// whatever the client runs next. Values of 0 B, 8 B, 1 KiB and 5 KiB
// (past what is carved: copied alone) and ⊥ are read through Read and
// through GetMulti. An append to each value must leave the others alone,
// as must a hundred more transactions that read and overwrite the keys —
// about 200 KiB of values, several of the region's 32 KiB chunks. Every
// value read first must still be what was written then, ⊥ nil and the
// empty value non-nil.
func TestReadValuesOwned(t *testing.T) {
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
	}
	run := func(body func(kv.Txn) error) {
		t.Helper()
		tx, err := cl.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := body(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run(func(tx kv.Txn) error {
		for _, k := range keys[:4] {
			if err := tx.Write(ctx, k, bytes.Clone(want[k])); err != nil {
				return err
			}
		}
		return nil
	})

	type read struct {
		how, key string
		got      []byte
	}
	var reads []read
	run(func(tx kv.Txn) error {
		for _, k := range keys {
			v, err := tx.Read(ctx, k)
			reads = append(reads, read{"Read", k, v})
			if err != nil {
				return err
			}
		}
		return nil
	})
	run(func(tx kv.Txn) error {
		m, err := kv.GetMulti(ctx, tx, keys)
		for _, k := range keys {
			reads = append(reads, read{"GetMulti", k, m[k]})
		}
		return err
	})
	check := func(when string) {
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
	check("as read")

	for _, r := range reads {
		if r.got != nil {
			_ = append(r.got, 0xff, 0xff)
		}
	}
	check("after an append to each value")

	for i := range 100 {
		run(func(tx kv.Txn) error {
			if _, err := kv.GetMulti(ctx, tx, keys); err != nil {
				return err
			}
			for _, k := range keys[1:3] {
				if _, err := tx.Read(ctx, k); err != nil {
					return err
				}
				if err := tx.Write(ctx, k, pattern(len(want[k]), byte(i))); err != nil {
					return err
				}
			}
			return nil
		})
	}
	check("after a hundred more transactions")
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
