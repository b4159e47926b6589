// Package ok uses borrowed frame views correctly: cloned before any
// store that outlives the frame, or kept strictly local. The
// borrowedview analyzer must stay silent.
package ok

import (
	"bytes"
	"strings"

	"github.com/lpd-epfl/mvtl/internal/wire"
)

type cacheEntry struct {
	key []byte
	val []byte
	str string
}

var lastValue []byte

// cloneThenStore is the tricky satellite case: bytes.Clone sanitizes
// the view, so the store is fine.
func cloneThenStore(e *cacheEntry, d *wire.Decoder) {
	e.key = bytes.Clone(d.Blob())
}

// cloneViaVar re-binds the variable to a clone before the store.
func cloneViaVar(e *cacheEntry, d *wire.Decoder) {
	v := d.Blob()
	v = bytes.Clone(v)
	e.val = v
}

// stringCopy converts to string — a copying conversion.
func stringCopy(e *cacheEntry, d *wire.Decoder) {
	e.str = string(d.Blob())
}

// appendCopy copies into a fresh backing array.
func appendCopy(fb *wire.FrameBuf) {
	lastValue = append([]byte(nil), fb.Body()...)
}

// localUse reads the view synchronously and lets it die with the frame.
func localUse(d *wire.Decoder) int {
	v := d.Blob()
	n := 0
	for _, b := range v {
		n += int(b)
	}
	return n
}

// decodedClone clones a decoded message's blob field before caching it.
func decodedClone(cache map[string][]byte, body []byte) error {
	resp, err := wire.DecodeSnapshotChunkResp(body)
	if err != nil {
		return err
	}
	cache["k"] = bytes.Clone(resp.Records[0].Value)
	return nil
}

// --- string views: the keys of a request decoded in place ---------------------

type keyState struct {
	name string
}

type keyEntry struct {
	name string
}

// cloneKeyThenStore is the fix for a kept key: strings.Clone sanitizes
// the view.
func cloneKeyThenStore(e *keyEntry, body []byte) error {
	var req wire.WriteLockReq
	if err := req.DecodeInto(body); err != nil {
		return err
	}
	e.name = strings.Clone(req.Key)
	return nil
}

// canonicalName looks a key up by its view — a map read keeps nothing —
// enters a new one under its own copy, and records the canonical name.
func canonicalName(keys map[string]*keyState, e *keyEntry, body []byte) error {
	var req wire.ReadLockBatchReq
	if err := req.DecodeInto(body); err != nil {
		return err
	}
	for _, k := range req.Keys {
		ks, ok := keys[k]
		if !ok {
			name := strings.Clone(k)
			ks = &keyState{name: name}
			keys[name] = ks
		}
		e.name = ks.name
	}
	return nil
}

// responseString keeps a response's error text: responses materialize
// their strings even when decoded in place.
func responseString(e *keyEntry, body []byte) error {
	var resp wire.ReadLockBatchResp
	if err := resp.DecodeInto(body); err != nil {
		return err
	}
	e.name = resp.Err
	return nil
}

// byteCopyOfKey converts the view to []byte, which copies.
func byteCopyOfKey(e *cacheEntry, body []byte) error {
	var req wire.VictimAbortReq
	if err := req.DecodeInto(body); err != nil {
		return err
	}
	e.key = []byte(req.Key)
	return nil
}
