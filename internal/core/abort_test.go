package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/kv"
	"github.com/lpd-epfl/mvtl/internal/lock"
)

var errSink error

// TestAbortErrorTextAndClassification pins what an abort looks like to
// callers: the rendered text, byte for byte what the engine produced
// when it built the error with fmt.Errorf, and which sentinels it
// matches.
func TestAbortErrorTextAndClassification(t *testing.T) {
	plain := errors.New("mvtil: interval exhausted")
	deadlock := fmt.Errorf("write-lock %q: %w", "k", lock.ErrDeadlock)
	for _, tc := range []struct {
		op       abortOp
		key      string
		cause    error
		want     string
		deadlock bool
	}{
		{abortRead, "k", plain, `read "k": kv: transaction aborted (mvtil: interval exhausted)`, false},
		{abortWrite, "a\"b", plain, `write "a\"b": kv: transaction aborted (mvtil: interval exhausted)`, false},
		{abortCommitLocks, "", plain, `commit locks: kv: transaction aborted (mvtil: interval exhausted)`, false},
		{abortRead, "", deadlock, `read "": kv: transaction aborted (kv: deadlock victim: write-lock "k": lock: deadlock detected)`, true},
		{abortWrite, "k", deadlock, `write "k": kv: transaction aborted (kv: deadlock victim: write-lock "k": lock: deadlock detected)`, true},
		{abortCommitLocks, "", deadlock, `commit locks: kv: transaction aborted (kv: deadlock victim: write-lock "k": lock: deadlock detected)`, true},
	} {
		err := abortedErr(tc.op, tc.key, tc.cause)
		if got := err.Error(); got != tc.want {
			t.Errorf("text\n got  %s\n want %s", got, tc.want)
		}
		if !errors.Is(err, kv.ErrAborted) {
			t.Errorf("%v: does not match kv.ErrAborted", err)
		}
		if got := errors.Is(err, kv.ErrDeadlock); got != tc.deadlock {
			t.Errorf("%v: matches kv.ErrDeadlock = %v, want %v", err, got, tc.deadlock)
		}
		// The cause is rendered, not wrapped: lock errors stay an
		// implementation detail of the engine.
		if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, plain) {
			t.Errorf("%v: exposes its cause to errors.Is", err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { errSink = abortedErr(abortRead, "k", plain) }); avg != 1 {
		t.Errorf("building an abort error: %v allocations, want 1", avg)
	}
}
