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
		op       string
		key      string
		cause    error
		want     string
		deadlock bool
	}{
		{"read", "k", plain, `read "k": kv: transaction aborted (mvtil: interval exhausted)`, false},
		{"write", "a\"b", plain, `write "a\"b": kv: transaction aborted (mvtil: interval exhausted)`, false},
		{"commit locks", "", plain, `commit locks: kv: transaction aborted (mvtil: interval exhausted)`, false},
		{"decide", "", plain, `decide: kv: transaction aborted (mvtil: interval exhausted)`, false},
		{"read batch", "", deadlock, `read batch: kv: transaction aborted (kv: deadlock victim: write-lock "k": lock: deadlock detected)`, true},
		{"write", "k", deadlock, `write "k": kv: transaction aborted (kv: deadlock victim: write-lock "k": lock: deadlock detected)`, true},
		{"commit locks", "", deadlock, `commit locks: kv: transaction aborted (kv: deadlock victim: write-lock "k": lock: deadlock detected)`, true},
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
		// The cause is wrapped: a remote backend's transport failures
		// and fenced routes decide how the caller retries.
		if !errors.Is(err, tc.cause) {
			t.Errorf("%v: hides its cause from errors.Is", err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { errSink = abortedErr("read", "k", plain) }); avg != 1 {
		t.Errorf("building an abort error: %v allocations, want 1", avg)
	}
}
