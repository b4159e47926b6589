package main

import (
	"testing"

	"github.com/lpd-epfl/mvtl/internal/core"
)

// TestOutcomes checks the six outcomes the program prints: timestamp
// ordering aborts all three schedules, and the policy each schedule
// showcases commits it.
func TestOutcomes(t *testing.T) {
	for _, c := range []struct {
		schedule string
		run      func(*core.DB) string
		policy   string
		want     string
	}{
		{"serial abort", serialAbort, "mvtl-to", "ABORT"},
		{"serial abort", serialAbort, "mvtl-eps-clock", "commit"},
		{"ghost abort", ghostAbort, "mvtl-to", "ABORT"},
		{"ghost abort", ghostAbort, "mvtl-ghostbuster", "commit"},
		{"Theorem 2", theorem2, "mvtl-to", "ABORT"},
		{"Theorem 2", theorem2, "mvtl-pref", "commit"},
	} {
		if got := c.run(mk(c.policy)); got != c.want {
			t.Errorf("%s under %s: %s, want %s", c.schedule, c.policy, got, c.want)
		}
	}
}
