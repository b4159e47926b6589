package client

import (
	"context"
	"strings"
	"testing"

	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

func TestConfigValidation(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	cases := []Config{
		{Servers: []string{"a"}, Network: n},          // missing ID
		{ID: 1, Network: n},                           // missing servers
		{ID: 1, Servers: []string{"a"}, Network: nil}, // missing network
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(Config{ID: 1, Servers: []string{"a"}, Network: n}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestNewRejectsPoliciesOffTheWire: a Mode whose policy the remote
// backend cannot run fails at New, naming the policy, instead of building
// a coordinator whose transactions would fail later (Pref's reads would
// panic in Txn.LocalKey).
func TestNewRejectsPoliciesOffTheWire(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	for _, m := range []Mode{policy.KindPref, policy.KindGhostbuster, policy.KindPrio, policy.KindEpsilonClock, Mode(99)} {
		cl, err := New(Config{ID: 1, Servers: []string{"s"}, Network: n, Mode: m})
		if err == nil || !strings.Contains(err.Error(), m.String()) {
			t.Errorf("New with %v: err %v, want an error naming it", m, err)
		}
		if cl != nil {
			t.Errorf("New with %v returned a client to begin transactions on", m)
		}
	}
}

func TestTxnIDsEmbedClientID(t *testing.T) {
	n := transport.NewMem(transport.LatencyModel{})
	a, _ := New(Config{ID: 1, Servers: []string{"s"}, Network: n})
	b, _ := New(Config{ID: 2, Servers: []string{"s"}, Network: n})
	ctx := context.Background()
	ta, _ := a.Begin(ctx)
	tb, _ := b.Begin(ctx)
	if ta.ID() == tb.ID() {
		t.Fatal("txn ids from different clients must differ")
	}
	if ta.ID()>>32 != 1 || tb.ID()>>32 != 2 {
		t.Fatalf("client id not embedded: %x %x", ta.ID(), tb.ID())
	}
}

// The former rpcConn tests (multiplexing, timeout, closed-connection
// errors, server disappearing mid-call) moved with the implementation
// to internal/rpc.
