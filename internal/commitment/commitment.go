// Package commitment implements the per-transaction commitment object of
// the distributed MVTL algorithm (§7/§H): a consensus object deciding the
// outcome of a transaction — "abort" or "commit with timestamp t" — such
// that coordinator and storage servers all agree even when the
// coordinator fails.
//
// The implementation follows §H.1's efficient scheme: each transaction
// designates one storage server (typically the first server reached by a
// write) as its decision point; proposals race on that server and the
// first to arrive wins. Since storage servers are modelled as reliable
// logical entities (replicated in practice), first-proposal-wins on a
// single process solves consensus among the participants. A decision
// server therefore keeps what each transaction's object decided, and
// nothing else: the object is its entry in one map.
package commitment

import (
	"sync"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// Decision is the agreed transaction outcome.
type Decision struct {
	Kind wire.DecisionKind
	// TS is the commit timestamp when Kind is DecideCommit.
	TS timestamp.Timestamp
}

// decided is a Decision as the registry keeps it, flattened so that the
// kind rides the timestamp's padding: 16 bytes, where a Decision is 24,
// and a map slot of 24 bytes rather than 32.
type decided struct {
	time int64
	proc int32
	kind wire.DecisionKind
}

func flatten(d Decision) decided {
	return decided{time: d.TS.Time, proc: d.TS.Proc, kind: d.Kind}
}

func (d decided) decision() Decision {
	return Decision{Kind: d.kind, TS: timestamp.New(d.time, d.proc)}
}

// Registry holds the decisions of a decision server, one per
// transaction. The zero value is not ready; use NewRegistry.
type Registry struct {
	mu        sync.Mutex
	decisions map[uint64]decided
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{decisions: make(map[uint64]decided)}
}

// Decide proposes an outcome for txn and returns the agreed decision:
// the proposal itself if this was the first proposal, the previously
// agreed decision otherwise. Being idempotent and first-proposal-wins,
// it provides the uniform-consensus properties of §H.2 (validity,
// integrity, agreement) within a single reliable process.
func (r *Registry) Decide(txn uint64, proposal Decision) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.decisions[txn]; ok {
		return d.decision()
	}
	r.decisions[txn] = flatten(proposal)
	return proposal
}
