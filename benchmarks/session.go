package main

import (
	"context"

	"github.com/lpd-epfl/mvtl"
	"github.com/lpd-epfl/mvtl/internal/kv"
)

// session is one client's handle on an engine: it holds the client's
// current transaction, so driving a transaction allocates nothing in
// the harness. The in-process store and the distributed coordinator
// expose different method names (Get/Set against Read/Write); session
// hides that, and the traced run interposes on it to record a span per
// call.
type session interface {
	begin(ctx context.Context) error
	read(ctx context.Context, key string) ([]byte, error)
	// getMulti reads a static key set in one call where the engine has
	// a batched read path; results are discarded.
	getMulti(ctx context.Context, keys []string) error
	write(ctx context.Context, key string, value []byte) error
	commit(ctx context.Context) error
	abort(ctx context.Context)
	// txnID is the engine's id of the current transaction.
	txnID() uint64
}

// localSession drives mvtl.Store.
type localSession struct {
	store *mvtl.Store
	tx    *mvtl.Txn
}

func (s *localSession) begin(ctx context.Context) (err error) {
	s.tx, err = s.store.Begin(ctx)
	return err
}

func (s *localSession) read(ctx context.Context, key string) ([]byte, error) {
	return s.tx.Get(ctx, key)
}

func (s *localSession) getMulti(ctx context.Context, keys []string) error {
	for _, k := range keys {
		if _, err := s.tx.Get(ctx, k); err != nil {
			return err
		}
	}
	return nil
}

func (s *localSession) write(ctx context.Context, key string, value []byte) error {
	return s.tx.Set(ctx, key, value)
}

func (s *localSession) commit(ctx context.Context) error { return s.tx.Commit(ctx) }

func (s *localSession) abort(ctx context.Context) { _ = s.tx.Abort(ctx) } // Abort never fails

func (s *localSession) txnID() uint64 { return s.tx.ID() }

// kvSession drives a distributed coordinator through kv.DB.
type kvSession struct {
	db kv.DB
	tx kv.Txn
}

func (s *kvSession) begin(ctx context.Context) (err error) {
	s.tx, err = s.db.Begin(ctx)
	return err
}

func (s *kvSession) read(ctx context.Context, key string) ([]byte, error) {
	return s.tx.Read(ctx, key)
}

func (s *kvSession) getMulti(ctx context.Context, keys []string) error {
	_, err := kv.GetMulti(ctx, s.tx, keys)
	return err
}

func (s *kvSession) write(ctx context.Context, key string, value []byte) error {
	return s.tx.Write(ctx, key, value)
}

func (s *kvSession) commit(ctx context.Context) error { return s.tx.Commit(ctx) }

func (s *kvSession) abort(ctx context.Context) { _ = s.tx.Abort(ctx) } // cleanup is best effort by design

func (s *kvSession) txnID() uint64 { return s.tx.ID() }
