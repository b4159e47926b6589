package client

import (
	"context"
	"testing"

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

func TestModeString(t *testing.T) {
	pairs := map[Mode]string{
		ModeTILEarly:    "mvtil-early",
		ModeTILLate:     "mvtil-late",
		ModeTO:          "mvto+",
		ModePessimistic: "2pl",
		Mode(99):        "mode(99)",
	}
	for m, want := range pairs {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q want %q", m, got, want)
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
