package policy

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/keyspace"
	"github.com/lpd-epfl/mvtl/internal/lock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/version"
)

// Alternatives produces the alternative timestamps A(t) for a
// preferential timestamp t (§5.1). The returned timestamps must be
// distinct from t and unique per transaction (reuse t's process id to
// guarantee that).
type Alternatives func(t timestamp.Timestamp) []timestamp.Timestamp

// OffsetAlternatives returns an Alternatives function producing
// t+offset_i for each given time offset; for Theorem 2's guarantees use
// negative offsets only.
func OffsetAlternatives(offsets ...int64) Alternatives {
	return func(t timestamp.Timestamp) []timestamp.Timestamp {
		out := make([]timestamp.Timestamp, 0, len(offsets))
		for _, d := range offsets {
			alt := timestamp.New(t.Time+d, t.Proc)
			if alt != t && alt.After(timestamp.Zero) {
				out = append(out, alt)
			}
		}
		return out
	}
}

// Pref is the preferential algorithm MVTL-Pref (Alg. 3/5). Each
// transaction has a preferential timestamp from the clock and a set of
// alternatives A(t); reads lock enough of the timeline to keep as many
// alternatives viable as possible, and commit tries the preferential
// timestamp first, then the alternatives. With alternatives below the
// preferential timestamp, MVTL-Pref aborts strictly fewer workloads than
// MVTO+ (Theorem 2).
type Pref struct {
	clk  *clock.Process
	alts Alternatives
}

var _ core.Policy = (*Pref)(nil)

// NewPref returns the preferential policy with alternatives alts.
func NewPref(clk *clock.Process, alts Alternatives) *Pref {
	return &Pref{clk: clk, alts: alts}
}

// prefState is the per-transaction state, pooled as every policy's is.
type prefState struct {
	pref timestamp.Timestamp
	// poss is PossTS: the timestamps still viable for commit.
	poss   timestamp.Set
	chosen timestamp.Timestamp
	found  bool
}

// state returns the transaction's state, set up at its first operation.
func (p *Pref) state(tx *core.Txn) *prefState {
	st, first := pooledState[prefState](tx)
	if first {
		*st = prefState{pref: txnClock(tx, p.clk).Now()}
		st.poss = pointSet(st.pref)
		for _, a := range p.alts(st.pref) {
			st.poss.AddInPlace(timestamp.Point(a))
		}
	}
	return st
}

// WriteLocks implements core.Policy: the write set is locked only at
// commit (Alg. 3 line 4).
func (p *Pref) WriteLocks(context.Context, *core.Txn, int32) error { return nil }

// Read implements core.Policy (Alg. 3 lines 5-14), key by key.
func (p *Pref) Read(ctx context.Context, tx *core.Txn, keys []int32) ([]core.ReadResult, error) {
	st, res := p.state(tx), make([]core.ReadResult, len(keys))
	for i, key := range keys {
		v, err := p.read(ctx, tx, st, tx.LocalKey(key))
		if err != nil {
			return nil, core.KeyErr(len(keys), tx.KeyName(key), err)
		}
		res[i].Version = v
	}
	return res, nil
}

// read reads the version below the preferential timestamp, read-locks
// toward the highest still viable timestamp, and narrows PossTS to the
// locked range. The locks reach past the bound the version is picked
// under, which the read step the backends share (one bound for both)
// does not offer: Pref runs the lock table's read step with its two
// bounds on the in-process store's key state directly (Txn.LocalKey),
// and does not run over the wire until the read-lock request carries
// them apart.
func (p *Pref) read(ctx context.Context, tx *core.Txn, st *prefState, ks *keyspace.Key) (version.Version, error) {
	if err := ctx.Err(); err != nil {
		return version.Version{}, err
	}
	if st.poss.IsEmpty() {
		return version.Version{}, errors.New("mvtl-pref: no viable timestamps left")
	}
	// A frozen point at or above pref cannot change what is read —
	// the pick below pref is strict — so the step keeps the prefix
	// below it, and the narrowing drops the dead candidates.
	upper, _ := st.poss.Max()
	v, got, err := ks.Locks.Read(ctx, tx.Owner(), st.pref, upper, true)
	if err != nil {
		return version.Version{}, err
	}
	// Narrow PossTS to [tr, tmax] (Alg. 3 line 13); tmax is the top of
	// the locked range (or tr itself when nothing was locked).
	hi := v.TS
	if !got.IsEmpty() {
		hi = got.Hi
	}
	st.poss = st.poss.IntersectInterval(timestamp.Span(v.TS, hi))
	return v, nil
}

// CommitLocks implements core.Policy (Alg. 3 lines 15-26): try to
// write-lock the whole write set at the preferential timestamp, then at
// each alternative, without waiting.
func (p *Pref) CommitLocks(ctx context.Context, tx *core.Txn) error {
	st := p.state(tx)
	writes := tx.Writes()
	if len(writes) == 0 {
		// Read-only: any remaining possible timestamp works; prefer the
		// preferential one.
		if st.poss.Contains(st.pref) {
			st.chosen, st.found = st.pref, true
		} else if max, ok := st.poss.Max(); ok {
			st.chosen, st.found = max, true
		} else {
			return errors.New("mvtl-pref: no viable timestamps left")
		}
		return nil
	}
	owner := tx.Owner()
	for _, t := range p.commitOrder(st) {
		acquired := true
		for _, key := range writes {
			if _, err := tx.LocalKey(key).Locks.AcquireWrite(ctx, owner, pointSet(t), lock.Options{}); err != nil {
				acquired = false
				break
			}
		}
		if acquired {
			st.chosen, st.found = t, true
			return nil
		}
		// This timestamp will not work: drop the write locks acquired
		// for it and try the next (Alg. 3 line 22).
		for _, key := range writes {
			tx.LocalKey(key).Locks.ReleaseWrites(owner)
		}
	}
	return fmt.Errorf("mvtl-pref: no timestamp in %v is write-lockable", st.poss)
}

// commitOrder lists the candidate commit timestamps: the preferential
// timestamp first, then the remaining possibilities from highest to
// lowest.
func (p *Pref) commitOrder(st *prefState) []timestamp.Timestamp {
	var out []timestamp.Timestamp
	if st.poss.Contains(st.pref) {
		out = append(out, st.pref)
	}
	var rest []timestamp.Timestamp
	for i := 0; i < st.poss.NumIntervals(); i++ {
		iv := st.poss.At(i)
		// PossTS is a set of discrete points by construction; walk it.
		for t := iv.Lo; t.AtOrBefore(iv.Hi); t = t.Next() {
			if t != st.pref {
				rest = append(rest, t)
			}
			if t == iv.Hi {
				break
			}
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[j].Before(rest[i]) })
	return append(out, rest...)
}

// CommitTS implements core.Policy.
func (p *Pref) CommitTS(tx *core.Txn, _ timestamp.Set) (timestamp.Timestamp, bool) {
	st := p.state(tx)
	return st.chosen, st.found
}

// CommitGC implements core.Policy (Alg. 3 line 28).
func (p *Pref) CommitGC(*core.Txn) bool { return false }
