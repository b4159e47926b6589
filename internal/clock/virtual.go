package clock

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"
)

// Virtual is a deterministic virtual-time scheduler implementing
// Timers. Registered actors (goroutines spawned through Go or
// bracketed by Register/Unregister) declare themselves blocked by
// sleeping or parking on a Waiter; when every actor is quiescent, the
// timeline jumps straight to the earliest pending deadline and fires
// it. A one-second lock-wait timeout or a 500ms partition window thus
// resolves in microseconds of wall clock, in the same event order on
// every run.
//
// The invariant that keeps transcripts identical to wall-clock runs is
// credited wakeups: every transition that makes a goroutine runnable
// again — a timer firing, a Waiter.Wake, a context expiring —
// increments the active count under the scheduler lock before the
// goroutine is signaled. Time therefore never advances while any
// woken goroutine has protocol work left to do, so a pending timeout
// can never fire ahead of the delivery that would have satisfied it.
// Blocking on anything the scheduler cannot see (a bare channel, a
// sync.WaitGroup) leaves the goroutine counted as runnable, which can
// only delay advancement, never reorder it; when the awaited goroutines
// themselves need the timeline to move, wait on a Join instead.
type Virtual struct {
	epoch time.Time

	mu sync.Mutex
	// now is the virtual timeline, in nanoseconds since epoch.
	now int64
	// registered counts live actors; active counts the runnable ones.
	registered, active int
	// parked counts waiters currently parked (for deadlock reporting).
	parked int
	timers vtimerHeap
	seq    uint64
}

// NewVirtual returns a fresh virtual timeline. The epoch is a fixed
// instant so that two runs read identical times.
func NewVirtual() *Virtual {
	return &Virtual{epoch: time.Unix(1_000_000_000, 0).UTC()}
}

var _ Timers = (*Virtual)(nil)

// Register adds the calling goroutine to the actor registry. Every
// goroutine that sleeps, parks, or wakes others on this timeline must
// be registered (Go-spawned goroutines are registered automatically).
func (v *Virtual) Register() {
	v.mu.Lock()
	v.registered++
	v.active++
	v.mu.Unlock()
}

// Unregister removes the calling goroutine from the registry, letting
// the timeline advance without it.
func (v *Virtual) Unregister() {
	v.mu.Lock()
	v.registered--
	v.active--
	v.tryAdvanceLocked()
	v.mu.Unlock()
}

// Now implements Timers.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	n := v.now
	v.mu.Unlock()
	return v.epoch.Add(time.Duration(n))
}

// Sleep implements Timers: the virtual sleep costs no wall clock once
// every other actor is quiescent.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{}, 1)
	v.mu.Lock()
	v.pushLocked(d, func() {
		v.active++
		ch <- struct{}{}
	})
	v.active--
	v.tryAdvanceLocked()
	v.mu.Unlock()
	<-ch
}

// SleepStop implements Timers.
func (v *Virtual) SleepStop(d time.Duration, stop <-chan struct{}) bool {
	if stop == nil {
		v.Sleep(d)
		return false
	}
	if d <= 0 {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	ch := make(chan struct{}, 1)
	v.mu.Lock()
	t := v.pushLocked(d, func() {
		v.active++
		ch <- struct{}{}
	})
	v.active--
	v.tryAdvanceLocked()
	v.mu.Unlock()
	select {
	case <-ch:
		// If stop closed concurrently, prefer reporting it: a closer
		// that went idle right after closing can let the timer fire
		// first, and callers use the result to decide shutdown.
		select {
		case <-stop:
			return true
		default:
			return false
		}
	case <-stop:
		v.mu.Lock()
		if t.idx >= 0 {
			// Not fired yet: cancel the timer and credit ourselves —
			// the closer of stop was an active goroutine, so no
			// advance can have slipped in between.
			v.removeLocked(t)
			v.active++
			v.mu.Unlock()
			return true
		}
		v.mu.Unlock()
		// The timer fired concurrently and already credited us;
		// consume its signal so the accounting balances.
		<-ch
		return false
	}
}

// AfterFunc implements Timers: fn runs on a registered goroutine when
// the timeline reaches now+d.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) {
	v.mu.Lock()
	v.pushLocked(d, func() { v.goLocked(fn) })
	v.mu.Unlock()
}

// Go implements Timers.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.goLocked(fn)
	v.mu.Unlock()
}

// goLocked spawns fn registered. The credit happens before the
// goroutine exists, so the parent can park immediately without the
// timeline advancing past the child's first action.
func (v *Virtual) goLocked(fn func()) {
	v.registered++
	v.active++
	go func() {
		defer v.Unregister()
		fn()
	}()
}

// NewWaiter implements Timers.
func (v *Virtual) NewWaiter() Waiter {
	return &vWaiter{v: v, ch: make(chan struct{}, 1)}
}

// WithTimeout implements Timers. The deadline lives on the virtual
// timeline: it expires when virtual now reaches it, which costs no
// wall clock once the system is otherwise quiescent. Parent
// cancellation is propagated only for parents with a Done channel
// (none of the bed's contexts have one — they derive from
// context.Background).
func (v *Virtual) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c := &vctx{parent: parent, v: v, done: make(chan struct{})}
	v.mu.Lock()
	if d <= 0 {
		c.deadline = v.epoch.Add(time.Duration(v.now))
		c.finishLocked(context.DeadlineExceeded)
		v.mu.Unlock()
		return c, func() {}
	}
	c.deadline = v.epoch.Add(time.Duration(v.now) + d)
	c.timer = v.pushLocked(d, func() { c.finishLocked(context.DeadlineExceeded) })
	v.mu.Unlock()
	if pd := parent.Done(); pd != nil {
		// Off-bed parents may be cancelable; watch them from an
		// unregistered goroutine (a registered one would block
		// advancement forever while watching).
		go func() {
			select {
			case <-pd:
				c.cancel(context.Cause(parent))
			case <-c.done:
			}
		}()
	}
	return c, func() { c.cancel(context.Canceled) }
}

// vtimer is one pending deadline. fire runs with v.mu held, exactly
// once; idx is the heap position, -1 once fired or removed.
type vtimer struct {
	at   int64
	seq  uint64
	idx  int
	fire func()
}

// pushLocked schedules fire at now+d and returns the entry.
func (v *Virtual) pushLocked(d time.Duration, fire func()) *vtimer {
	if d < 0 {
		d = 0
	}
	t := &vtimer{at: v.now + int64(d), seq: v.seq, fire: fire}
	v.seq++
	heap.Push(&v.timers, t)
	return t
}

func (v *Virtual) removeLocked(t *vtimer) {
	if t.idx >= 0 {
		heap.Remove(&v.timers, t.idx)
		t.idx = -1
	}
}

// tryAdvanceLocked is the heart of the scheduler: while no registered
// actor is runnable, jump the timeline to the earliest pending
// deadline and fire it. Entries that share an instant fire in
// insertion order. A quiescent system with parked waiters and no
// pending timers can never make progress again, so that state panics
// with a diagnostic rather than hanging the run.
func (v *Virtual) tryAdvanceLocked() {
	for v.active == 0 {
		if len(v.timers) == 0 {
			if v.parked > 0 && v.registered > 0 {
				msg := fmt.Sprintf(
					"clock: virtual time deadlock at %v: %d registered actors all blocked, %d parked waiters, no pending timers",
					time.Duration(v.now), v.registered, v.parked)
				// Unlock before panicking: the panic unwinds through a
				// caller that still holds the scheduler lock, and a
				// recovering test must be able to inspect the state.
				v.mu.Unlock()
				panic(msg)
			}
			return
		}
		t := v.timers[0]
		heap.Pop(&v.timers)
		t.idx = -1
		if t.at > v.now {
			v.now = t.at
		}
		t.fire()
	}
}

// vtimerHeap orders by (deadline, insertion sequence).
type vtimerHeap []*vtimer

func (h vtimerHeap) Len() int { return len(h) }
func (h vtimerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h vtimerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *vtimerHeap) Push(x any) {
	t := x.(*vtimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *vtimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// vWaiter is the virtual Waiter. All state transitions happen under
// the scheduler lock so that wake credits are exact: a Wake on a
// parked waiter marks it runnable before signaling it, and a Wake on
// a running waiter is buffered (level-triggered, capacity one), just
// like the system implementation's non-blocking channel send.
type vWaiter struct {
	v  *Virtual
	ch chan struct{}
	// armed is true while a goroutine is parked on this waiter;
	// signaled buffers a wake delivered while unparked; expired marks
	// a wake caused by the parked-on context finishing.
	armed, signaled, expired bool
	// ctx is the vctx being parked on, if any, so the context's
	// expiry can find and wake this waiter.
	ctx *vctx
}

func (w *vWaiter) Wake() {
	v := w.v
	v.mu.Lock()
	if w.armed {
		w.wakeLocked(false)
	} else {
		w.signaled = true
	}
	v.mu.Unlock()
}

// wakeLocked unparks the waiter: credit first, then signal.
func (w *vWaiter) wakeLocked(expired bool) {
	w.armed = false
	w.expired = expired
	if w.ctx != nil {
		w.ctx.detachLocked(w)
		w.ctx = nil
	}
	w.v.parked--
	w.v.active++
	w.ch <- struct{}{}
}

func (w *vWaiter) Park() {
	v := w.v
	v.mu.Lock()
	if w.signaled {
		w.signaled = false
		v.mu.Unlock()
		return
	}
	w.armed = true
	v.parked++
	v.active--
	v.tryAdvanceLocked()
	v.mu.Unlock()
	<-w.ch
}

func (w *vWaiter) ParkCtx(ctx context.Context) error {
	if ctx == nil || ctx.Done() == nil {
		w.Park()
		return nil
	}
	v := w.v
	if c, ok := ctx.(*vctx); ok && c.v == v {
		v.mu.Lock()
		if c.err != nil {
			err := c.err
			v.mu.Unlock()
			return err
		}
		if w.signaled {
			w.signaled = false
			v.mu.Unlock()
			return nil
		}
		w.armed = true
		w.ctx = c
		c.waiters = append(c.waiters, w)
		v.parked++
		v.active--
		v.tryAdvanceLocked()
		v.mu.Unlock()
		<-w.ch
		v.mu.Lock()
		defer v.mu.Unlock()
		if w.expired {
			w.expired = false
			return c.err
		}
		return nil
	}
	// Foreign cancelable context on a virtual timeline: park as usual
	// and additionally watch the context. The context's firing is
	// outside the scheduler's control, so this path is not part of the
	// deterministic bed — it exists so off-bed callers stay correct.
	v.mu.Lock()
	if w.signaled {
		w.signaled = false
		v.mu.Unlock()
		return nil
	}
	w.armed = true
	v.parked++
	v.active--
	v.tryAdvanceLocked()
	v.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		v.mu.Lock()
		if w.armed {
			w.armed = false
			v.parked--
			v.active++
			v.mu.Unlock()
			return ctx.Err()
		}
		v.mu.Unlock()
		// A Wake raced the cancellation and already credited us.
		<-w.ch
		return nil
	}
}

func (w *vWaiter) Drain() {
	w.v.mu.Lock()
	w.signaled = false
	w.v.mu.Unlock()
}

// vctx is a context whose deadline lives on the virtual timeline.
type vctx struct {
	parent context.Context
	v      *Virtual
	done   chan struct{}

	// Guarded by v.mu.
	deadline time.Time
	err      error
	timer    *vtimer
	waiters  []*vWaiter
}

func (c *vctx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *vctx) Done() <-chan struct{}       { return c.done }
func (c *vctx) Value(key any) any           { return c.parent.Value(key) }

func (c *vctx) Err() error {
	c.v.mu.Lock()
	err := c.err
	c.v.mu.Unlock()
	return err
}

func (c *vctx) cancel(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	c.v.mu.Lock()
	if c.err == nil {
		c.v.removeLocked(c.timer)
		c.finishLocked(cause)
	}
	c.v.mu.Unlock()
}

// finishLocked settles the context and wakes (with credit) every
// waiter parked on it.
func (c *vctx) finishLocked(err error) {
	c.err = err
	close(c.done)
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.ctx = nil
		w.wakeLocked(true)
	}
}

func (c *vctx) detachLocked(w *vWaiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}
