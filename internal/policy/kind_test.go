package policy_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// TestKindTable holds the policy table to what every layer expects of a
// kind — its name, the policy it builds and whether the coordinator runs
// it — written out here independently, so that a row swapped in the
// table fails.
func TestKindTable(t *testing.T) {
	lo, hi := timestamp.New(10, 1), timestamp.New(20, 1)
	twoPoints := timestamp.NewSet(timestamp.Point(lo), timestamp.Point(hi))
	for _, want := range []struct {
		kind   policy.Kind
		name   string
		typ    string
		gc     bool
		remote bool
		// commitsAt is where MVTIL commits out of twoPoints; zero for the
		// other policies.
		commitsAt timestamp.Timestamp
	}{
		{policy.KindTILEarly, "mvtil-early", "*policy.TIL", true, true, lo},
		{policy.KindTILLate, "mvtil-late", "*policy.TIL", true, true, hi},
		{policy.KindTO, "mvtl-to", "*policy.TO", false, true, timestamp.Timestamp{}},
		{policy.KindGhostbuster, "mvtl-ghostbuster", "*policy.TO", true, false, timestamp.Timestamp{}},
		{policy.KindPref, "mvtl-pref", "*policy.Pref", false, false, timestamp.Timestamp{}},
		{policy.KindPrio, "mvtl-prio", "*policy.Prio", true, false, timestamp.Timestamp{}},
		{policy.KindEpsilonClock, "mvtl-eps-clock", "*policy.EpsilonClock", true, false, timestamp.Timestamp{}},
		{policy.KindPessimistic, "mvtl-pessimistic", "policy.Pessimistic", true, true, timestamp.Timestamp{}},
	} {
		k := want.kind
		if k.String() != want.name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want.name)
		}
		if got, err := policy.Parse(k.String()); err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v; want %v", k.String(), got, err, want.name)
		}
		if k.Remote() != want.remote {
			t.Errorf("%v.Remote() = %v, want %v", k, k.Remote(), want.remote)
		}
		var src clock.Logical
		pol := k.New(clock.NewProcess(&src, 1), policy.Params{})
		if typ := fmt.Sprintf("%T", pol); typ != want.typ {
			t.Errorf("%v builds a %s, want %s", k, typ, want.typ)
		}
		if pol.CommitGC(nil) != want.gc {
			t.Errorf("%v: CommitGC = %v, want %v", k, pol.CommitGC(nil), want.gc)
		}
		if _, ok := pol.(*policy.TIL); ok {
			if got, _ := pol.CommitTS(nil, twoPoints); got != want.commitsAt {
				t.Errorf("%v commits at %v of %v, want %v", k, got, twoPoints, want.commitsAt)
			}
		}
	}

	// Every spelling the command lines have accepted parses as before.
	for spelling, k := range map[string]policy.Kind{
		"mvtil-early": policy.KindTILEarly,
		"mvtil-late":  policy.KindTILLate,
		"mvto+":       policy.KindTO,
		"mvto":        policy.KindTO,
		"2pl":         policy.KindPessimistic,
		"pessimistic": policy.KindPessimistic,
	} {
		if got, err := policy.Parse(spelling); err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v; want %v", spelling, got, err, k)
		}
	}

	_, err := policy.Parse("mvcc")
	if err == nil {
		t.Fatal(`Parse("mvcc") succeeded`)
	}
	for k := policy.KindTILEarly; k <= policy.KindPessimistic; k++ {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("Parse error %q does not list %v", err, k)
		}
	}
	if k := policy.Kind(42); k.String() != "kind(42)" || k.Remote() {
		t.Errorf("Kind(42): String %q, Remote %v", k.String(), k.Remote())
	}
}
