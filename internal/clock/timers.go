package clock

import (
	"context"
	"sync/atomic"
	"time"
)

// Timers abstracts every wall-clock surface the fault bed touches:
// sleeping, timeout contexts, deferred functions, goroutine spawning
// and parking. Production code runs on SystemTimers, which delegates
// straight to the time and context packages; the fault bed can swap in
// a *Virtual so that modeled delays (network latency, lock-wait
// timeouts, scanner periods, settle polls) cost no wall clock and
// resolve in a deterministic order.
//
// The Go and NewWaiter members exist because a virtual timeline can
// only advance when every participating goroutine is quiescent: the
// scheduler has to know how many runnable actors exist (Go registers
// spawned goroutines) and where they park for non-timer wakeups
// (Waiter; a wait for other registered goroutines to finish is a Join,
// built on one). On SystemTimers both are pass-throughs with zero
// bookkeeping.
type Timers interface {
	// Now returns the current time on this timeline.
	Now() time.Time
	// Sleep pauses the calling goroutine for d on this timeline.
	Sleep(d time.Duration)
	// SleepStop sleeps d, returning early with true if stop closes
	// first. A nil stop is a plain Sleep.
	SleepStop(d time.Duration, stop <-chan struct{}) bool
	// WithTimeout derives a context that expires after d on this
	// timeline. The returned cancel must be called, as with
	// context.WithTimeout.
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)
	// AfterFunc runs fn on its own goroutine after d.
	AfterFunc(d time.Duration, fn func())
	// Go runs fn on a new goroutine registered with this timeline.
	// Every goroutine that may sleep, park on a Waiter, or wake one
	// must be spawned through Go (or bracketed by Virtual
	// Register/Unregister) so quiescence detection stays exact.
	Go(fn func())
	// NewWaiter returns a parkable wake slot bound to this timeline.
	NewWaiter() Waiter
}

// Waiter is a level-triggered, capacity-one wake slot — the Timers
// counterpart of the `make(chan struct{}, 1)` + non-blocking-send
// idiom. A Wake delivered while nobody is parked is remembered and
// absorbed by the next Park; at most one wake is buffered.
type Waiter interface {
	// Wake unparks the parked goroutine, or buffers one wake if none
	// is parked. It never blocks.
	Wake()
	// Park blocks until a Wake, consuming one buffered wake if present.
	Park()
	// ParkCtx is Park bounded by ctx: it returns nil on Wake, or
	// ctx.Err() once ctx is done.
	ParkCtx(ctx context.Context) error
	// Drain discards a buffered wake, if any, without blocking.
	Drain()
}

// OrSystem returns t, or SystemTimers when t is nil — the idiom for
// optional Timers fields in configs.
func OrSystem(t Timers) Timers {
	if t == nil {
		return SystemTimers{}
	}
	return t
}

// SystemTimers is the production Timers: real time, real sleeps, plain
// goroutines, no registry.
type SystemTimers struct{}

// Now implements Timers.
func (SystemTimers) Now() time.Time { return time.Now() }

// Sleep implements Timers.
func (SystemTimers) Sleep(d time.Duration) { time.Sleep(d) }

// SleepStop implements Timers.
func (SystemTimers) SleepStop(d time.Duration, stop <-chan struct{}) bool {
	if stop == nil {
		time.Sleep(d)
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		select {
		case <-stop:
			return true
		default:
			return false
		}
	case <-stop:
		return true
	}
}

// WithTimeout implements Timers.
func (SystemTimers) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}

// AfterFunc implements Timers.
func (SystemTimers) AfterFunc(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// Go implements Timers.
func (SystemTimers) Go(fn func()) { go fn() }

// NewWaiter implements Timers.
func (SystemTimers) NewWaiter() Waiter { return &sysWaiter{ch: make(chan struct{}, 1)} }

var _ Timers = SystemTimers{}

// sysWaiter is the classic buffered-channel wake slot.
type sysWaiter struct {
	ch chan struct{}
}

func (w *sysWaiter) Wake() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

func (w *sysWaiter) Park() { <-w.ch }

func (w *sysWaiter) ParkCtx(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		<-w.ch
		return nil
	}
	select {
	case <-w.ch:
		return nil
	case <-done:
		return ctx.Err()
	}
}

func (w *sysWaiter) Drain() {
	select {
	case <-w.ch:
	default:
	}
}

// Join is a credited fan-in barrier: the Timers counterpart of a
// sync.WaitGroup join, and the only way to wait for other goroutines of
// a timeline. Children spawned through Timers.Go call Done while they
// are still registered actors, so on a virtual timeline the wake that
// unblocks Wait carries a runnability credit — the timeline cannot
// advance in the instant between the last child finishing and the
// waiter resuming. A sync.WaitGroup cannot give that guarantee: its
// internal wake is invisible to the scheduler.
type Join struct {
	n atomic.Int64
	w Waiter
}

// NewJoin returns a Join expecting n completions on t's timeline.
func NewJoin(t Timers, n int) *Join {
	j := &Join{w: t.NewWaiter()}
	j.n.Store(int64(n))
	return j
}

// Add registers k more expected completions. As with sync.WaitGroup,
// Add must happen-before the Wait it should block.
func (j *Join) Add(k int) { j.n.Add(int64(k)) }

// Done marks one completion. The zero-crossing Done wakes the waiter;
// on a virtual timeline the caller must still be a registered actor
// (call Done from the body of a Timers.Go goroutine, not after it).
func (j *Join) Done() {
	if j.n.Add(-1) == 0 {
		j.w.Wake()
	}
}

// Wait blocks until the completion count reaches zero. The recheck
// loop makes the park level-triggered, so a stale buffered wake from
// an earlier zero-crossing (count went to zero, then Add raised it
// again) is absorbed harmlessly.
func (j *Join) Wait() {
	for j.n.Load() > 0 {
		j.w.Park()
	}
}

// TimersSource adapts a Timers to the Source interface (microsecond
// ticks), so coordinators can stamp transactions from the same timeline
// their waits run on. Over SystemTimers it is equivalent to System;
// over a *Virtual it makes timestamp spacing follow virtual time, which
// is what keeps TIL interval overlap behavior identical between wall
// and virtual runs of the fault bed.
type TimersSource struct {
	T Timers
}

// Now implements Source.
func (s TimersSource) Now() int64 { return s.T.Now().UnixMicro() }

var _ Source = TimersSource{}
