// Package bad stores borrowed frame-body views into places that
// outlive the frame — every function here is a use-after-release
// waiting for pool reuse, and the borrowedview analyzer must flag each.
package bad

import (
	"github.com/lpd-epfl/mvtl/internal/wire"
)

type cacheEntry struct {
	key []byte
	val []byte
}

var lastValue []byte

// fieldStore stashes a Decoder.Blob view into a struct field.
func fieldStore(e *cacheEntry, d *wire.Decoder) {
	e.key = d.Blob() // want `borrowed frame view stored into struct field e.key`
}

// globalStore parks a frame body in a package-level variable.
func globalStore(fb *wire.FrameBuf) {
	lastValue = fb.Body() // want `borrowed frame view stored into package-level variable lastValue`
}

// mapStore caches a borrowed view by key.
func mapStore(cache map[string][]byte, d *wire.Decoder) {
	v := d.Blob()
	cache["k"] = v // want `borrowed frame view stored into map cache`
}

// decodedFieldStore stores a Value field of a decoded message — a
// view into the response frame, not a copy.
func decodedFieldStore(e *cacheEntry, body []byte) error {
	resp, err := wire.DecodeSnapshotChunkResp(body)
	if err != nil {
		return err
	}
	e.val = resp.Records[0].Value // want `borrowed frame view stored into struct field e.val`
	return nil
}

// goroutineCapture lets a borrowed view outlive the synchronous frame
// lifetime by capturing it in a goroutine.
func goroutineCapture(fb *wire.FrameBuf, sink func([]byte)) {
	b := fb.Body()
	go func() {
		sink(b) // want `borrowed frame view b captured by a goroutine closure`
	}()
	fb.Release()
}

// --- string views: the keys of a request decoded in place ---------------------

type keyEntry struct {
	name  string
	names []string
}

type connScratch struct {
	req wire.WriteLockBatchReq
}

// strViewStore stashes a Decoder.StrView result into a struct field.
func strViewStore(e *keyEntry, d *wire.Decoder) {
	e.name = d.StrView() // want `borrowed frame view stored into struct field e.name without strings.Clone`
}

// keyFieldStore keeps the key of a request decoded in place: a view of
// the request frame, not a copy.
func keyFieldStore(e *keyEntry, body []byte) error {
	var req wire.WriteLockReq
	if err := req.DecodeInto(body); err != nil {
		return err
	}
	e.name = req.Key // want `borrowed frame view stored into struct field e.name without strings.Clone`
	return nil
}

// mapKeyStore enters borrowed keys into a map, which keeps them.
func mapKeyStore(index map[string]int, body []byte) error {
	var req wire.ReadLockBatchReq
	if err := req.DecodeInto(body); err != nil {
		return err
	}
	for i, k := range req.Keys {
		index[k] = i // want `borrowed frame view used as a key of map index without strings.Clone`
	}
	return nil
}

// appendStore collects borrowed keys in a slice that outlives the frame.
func appendStore(e *keyEntry, body []byte) error {
	var req wire.ReleaseBatchReq
	if err := req.DecodeInto(body); err != nil {
		return err
	}
	e.names = append(e.names, req.Keys[0]) // want `borrowed frame view stored into struct field e.names without strings.Clone`
	return nil
}

// scratchItemStore decodes into per-connection scratch and keeps an
// item's key past the frame.
func scratchItemStore(c *connScratch, e *keyEntry, body []byte) error {
	if err := c.req.DecodeInto(body); err != nil {
		return err
	}
	e.name = c.req.Items[0].Key // want `borrowed frame view stored into struct field e.name without strings.Clone`
	return nil
}

// keyGoroutineCapture hands a borrowed key to a goroutine.
func keyGoroutineCapture(body []byte, sink func(string)) error {
	var req wire.VictimAbortReq
	if err := req.DecodeInto(body); err != nil {
		return err
	}
	key := req.Key
	go func() {
		sink(key) // want `borrowed frame view key captured by a goroutine closure without strings.Clone`
	}()
	return nil
}
