package policy

import (
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/core"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// PooledState is pooledState, for tests outside the package.
func PooledState[T any](tx *core.Txn) (*T, bool) { return pooledState[T](tx) }

// TxnClock is txnClock: the clock a policy whose default is def reads
// for tx.
func TxnClock(tx *core.Txn, def *clock.Process) *clock.Process { return txnClock(tx, def) }

// PossTS returns the timestamps a Pref transaction may still commit at.
func PossTS(tx *core.Txn) timestamp.Set { return tx.Scratch().Policy.(*prefState).poss }
