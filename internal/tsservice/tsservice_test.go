package tsservice

import (
	"sync"
	"testing"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

func TestBoundSubtractsRetention(t *testing.T) {
	var m clock.Manual
	m.Set(10_000_000) // 10s in µs
	s := Start(Config{
		Interval:  time.Hour, // never fires during the test
		Retention: 2 * time.Second,
		Clock:     &m,
	})
	defer s.Stop()
	if got := s.Bound(); got != timestamp.New(8_000_000, 0) {
		t.Fatalf("Bound = %v", got)
	}
}

func TestBoundClampsAtZero(t *testing.T) {
	var m clock.Manual
	m.Set(5)
	s := Start(Config{Interval: time.Hour, Retention: time.Minute, Clock: &m})
	defer s.Stop()
	if got := s.Bound(); got != timestamp.New(0, 0) {
		t.Fatalf("Bound = %v", got)
	}
}

func TestBroadcastFires(t *testing.T) {
	var m clock.Manual
	m.Set(1_000_000)
	var mu sync.Mutex
	var bounds []timestamp.Timestamp
	s := Start(Config{
		Interval:  10 * time.Millisecond,
		Retention: 0,
		Clock:     &m,
		Broadcast: func(b timestamp.Timestamp) {
			mu.Lock()
			bounds = append(bounds, b)
			mu.Unlock()
		},
	})
	time.Sleep(60 * time.Millisecond)
	s.Stop()
	mu.Lock()
	n := len(bounds)
	mu.Unlock()
	if n < 2 {
		t.Fatalf("expected several broadcasts, got %d", n)
	}
	for _, b := range bounds {
		if b != timestamp.New(1_000_000, 0) {
			t.Fatalf("bound = %v", b)
		}
	}
}

func TestStopIsIdempotentlySafe(t *testing.T) {
	s := Start(Config{Interval: 5 * time.Millisecond})
	s.Stop()
	// Second stop would panic on a closed channel; ensure the API is
	// used once. (Documented contract: Stop once.)
}
