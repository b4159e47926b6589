// Package tsservice implements the timestamp service of §8.1: a
// component that periodically broadcasts a time T in the past — the
// current time minus a retention constant K — with two effects: storage
// servers trim every key below T, and clients advance their local clocks
// to at least T so that slow clocks do not start transactions that
// would need purged versions.
//
// A trim (lock.Table.Trim) drops the versions below T but the newest
// one and the frozen lock records below T, and leaves the past one
// frozen read range, so no write can land below it. It never passes a
// lock a running transaction holds, so any T is safe: a transaction
// older than T aborts, it does not break serializability. Servers do not
// trim on commit, as the in-process store does, so that the GC-off
// series of Figs 6–7 keep growing: on a server this broadcast is what
// bounds the state.
package tsservice

import (
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

// Config parameterizes the service.
type Config struct {
	// Interval is the broadcast period (the paper purges every 15s on
	// the local bed; scale down for tests).
	Interval time.Duration
	// Retention is K: the broadcast bound is now − K.
	Retention time.Duration
	// Clock supplies "now" in microsecond ticks; defaults to the system
	// clock.
	Clock clock.Source
	// Broadcast receives the bound on every period. Implementations
	// purge servers and advance client clocks.
	Broadcast func(bound timestamp.Timestamp)
}

// Service is a running timestamp service.
type Service struct {
	cfg  Config
	stop chan struct{}
	wg   sync.WaitGroup
}

// Start launches the service.
func Start(cfg Config) *Service {
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	s := &Service{cfg: cfg, stop: make(chan struct{})}
	s.wg.Add(1)
	go s.run()
	return s
}

// ticksPerSecond converts Retention to the clock's microsecond ticks.
const ticksPerSecond = 1_000_000

// Bound computes the current broadcast bound.
func (s *Service) Bound() timestamp.Timestamp {
	retentionTicks := int64(s.cfg.Retention.Seconds() * ticksPerSecond)
	t := s.cfg.Clock.Now() - retentionTicks
	if t < 0 {
		t = 0
	}
	return timestamp.New(t, 0)
}

func (s *Service) run() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if s.cfg.Broadcast != nil {
				s.cfg.Broadcast(s.Bound())
			}
		}
	}
}

// Stop halts the service and waits for the broadcast goroutine.
func (s *Service) Stop() {
	close(s.stop)
	s.wg.Wait()
}
