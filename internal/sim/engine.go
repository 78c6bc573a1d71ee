// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). All model time in this repository is
// expressed in seconds as the float64-based Time type; helpers for
// common units are provided. Determinism is guaranteed: two events
// scheduled for the same instant fire in insertion order, so repeated
// runs with the same inputs produce identical traces.
//
// The queue is a specialized indexed 4-ary min-heap over *Event — no
// container/heap, no interface boxing on push/pop. Combined with the
// event free list and the pre-bound AtFunc/AfterFunc callback path,
// the steady-state schedule/fire cycle runs allocation-free (see
// BenchmarkEngineStep and TestEngineSteadyStateZeroAlloc).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds.
type Time float64

// Common duration constants, in seconds.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

// Never is a sentinel representing an unreachable point in time.
const Never Time = Time(math.MaxFloat64)

// Micros reports t in microseconds. Useful for human-readable output.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time in microseconds with fixed precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.3fus", t.Micros())
}

// Event is a scheduled callback. The callback runs with the engine
// clock set to the event's due time.
//
// Lifetime: an Event handle is valid only until the event fires or is
// cancelled — afterwards the engine recycles it for a future At/After
// call, so holders must drop their reference once it is dead (every
// holder in this repository clears its reference when rescheduling or
// when the callback runs). Cancelling an event that already fired or
// was already cancelled remains a no-op as long as the handle has not
// been reused.
type Event struct {
	due Time
	seq uint64

	// Exactly one of fn (closure path) or afn (pre-bound path with an
	// explicit argument) is set. The second form exists so hot loops
	// can schedule without allocating: the callback func is created
	// once and the per-event state travels in arg, which for a pointer
	// payload costs no allocation.
	fn  func()
	afn func(any)
	arg any

	index int // heap index, or position in a wheel's current bucket; -1 once removed

	// next/prev chain the event into a timing-wheel slot list; loc says
	// which structure currently holds the event (a wheel slot code, or
	// one of the loc* constants). Heap-backed engines only ever use
	// locHeap/locNone.
	next, prev *Event
	loc        int32

	dead   bool
	engine *Engine
}

// Due reports when the event will fire.
func (e *Event) Due() Time { return e.due }

// Cancel removes the event from the queue. Cancelling an event that
// already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.dead || e.loc == locNone {
		return
	}
	eng := e.engine
	switch e.loc {
	case locHeap:
		if eng.wheel != nil {
			eng.wheel.over.remove(e.index)
		} else {
			eng.queue.remove(e.index)
		}
	case locCur:
		eng.wheel.removeCur(e)
	default:
		eng.wheel.unlink(e)
	}
	e.dead = true
	eng.recycle(e)
}

// eventQueue is an indexed 4-ary min-heap ordered by (due, seq). The
// wide fan-out halves the tree depth of the binary heap it replaces,
// and operating on *Event directly (instead of through heap.Interface)
// removes the any-boxing and virtual calls from every push and pop.
type eventQueue struct {
	ev []*Event
}

// before reports whether a fires strictly before b.
func before(a, b *Event) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e *Event) {
	e.loc = locHeap
	e.index = len(q.ev)
	q.ev = append(q.ev, e)
	q.siftUp(e.index)
}

func (q *eventQueue) pop() *Event {
	root := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = nil
	q.ev = q.ev[:n]
	if n > 0 {
		q.ev[0] = last
		last.index = 0
		q.siftDown(0)
	}
	root.index = -1
	root.loc = locNone
	return root
}

// remove deletes the event at heap position i.
func (q *eventQueue) remove(i int) {
	n := len(q.ev) - 1
	removed := q.ev[i]
	last := q.ev[n]
	q.ev[n] = nil
	q.ev = q.ev[:n]
	if i < n {
		q.ev[i] = last
		last.index = i
		q.siftDown(i)
		q.siftUp(i)
	}
	removed.index = -1
	removed.loc = locNone
}

func (q *eventQueue) siftUp(i int) {
	ev := q.ev
	e := ev[i]
	for i > 0 {
		p := (i - 1) / 4
		if !before(e, ev[p]) {
			break
		}
		ev[i] = ev[p]
		ev[i].index = i
		i = p
	}
	ev[i] = e
	e.index = i
}

func (q *eventQueue) siftDown(i int) {
	ev := q.ev
	n := len(ev)
	e := ev[i]
	for {
		c := 4*i + 1 // first child
		if c >= n {
			break
		}
		// Find the earliest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(ev[j], ev[m]) {
				m = j
			}
		}
		if !before(ev[m], e) {
			break
		}
		ev[i] = ev[m]
		ev[i].index = i
		i = m
	}
	ev[i] = e
	e.index = i
}

// Engine is a discrete-event simulator. The zero value is ready to use
// and is heap-backed; NewWheel builds a timing-wheel-backed engine with
// identical semantics.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	stopped bool

	// wheel, when non-nil, replaces queue as the event store. Both
	// orderings are identical — (due, seq) — so the two backends are
	// observationally equivalent; the wheel trades the heap's O(log n)
	// sifts for O(1) bucket operations on the short-latency traffic
	// that dominates DRAM simulation.
	wheel *timingWheel

	// gseq, when set by a Group, replaces the engine-local sequence
	// counter so events allocated across the group's engines are
	// numbered exactly as a single engine would number them.
	gseq *uint64

	// free recycles fired/cancelled events: the simulation hot path
	// schedules and retires millions of events per run, and reusing
	// them keeps Step allocation-free (see BenchmarkEngineStep).
	free []*Event
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// NewWheel returns a fresh engine whose event queue is the hierarchical
// timing wheel (see wheel.go) with the default 64 ns tick. Ordering and
// determinism are identical to New; only the complexity profile differs.
func NewWheel() *Engine { return NewWheelTick(DefaultWheelTick) }

// NewWheelTick is NewWheel with an explicit level-0 bucket width, to be
// sized to the engine's scheduled delays (see wheel.go).
func NewWheelTick(tick Time) *Engine {
	return &Engine{wheel: newTimingWheel(tick)}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// recycle returns a dead event to the free list. The callbacks are
// dropped immediately so their captures can be collected even while
// the event shell waits for reuse.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// alloc takes an event shell off the free list (or allocates one) and
// stamps it with the next sequence number.
func (e *Engine) alloc(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.dead = false
	} else {
		ev = &Event{}
	}
	ev.due = t
	ev.engine = e
	if e.gseq != nil {
		ev.seq = *e.gseq
		*e.gseq++
	} else {
		ev.seq = e.seq
		e.seq++
	}
	return ev
}

// schedule routes a freshly allocated event into whichever queue
// backend this engine uses.
func (e *Engine) schedule(ev *Event) {
	if e.wheel != nil {
		e.wheel.insert(ev)
	} else {
		e.queue.push(ev)
	}
}

// peekNext returns the next event to fire without consuming it, or nil
// when the engine is idle. On a wheel engine this may rotate buckets
// forward, but never changes what fires or in what order.
func (e *Engine) peekNext() *Event {
	if e.wheel != nil {
		return e.wheel.peek()
	}
	if len(e.queue.ev) == 0 {
		return nil
	}
	return e.queue.ev[0]
}

// popNext consumes and returns the next event, or nil when idle.
func (e *Engine) popNext() *Event {
	if e.wheel != nil {
		return e.wheel.pop()
	}
	if len(e.queue.ev) == 0 {
		return nil
	}
	return e.queue.pop()
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.alloc(t)
	ev.fn = fn
	e.schedule(ev)
	return ev
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// AtFunc schedules the pre-bound callback fn(arg) at absolute time t.
// This is the allocation-free scheduling path: fn is typically a
// method value created once and stored by the caller, and arg carries
// the per-event state (a pointer payload costs no allocation when
// stored in the event). Scheduling in the past panics.
func (e *Engine) AtFunc(t Time, fn func(any), arg any) *Event {
	ev := e.alloc(t)
	ev.afn = fn
	ev.arg = arg
	e.schedule(ev)
	return ev
}

// AfterFunc schedules the pre-bound callback fn(arg) to run d seconds
// from now. See AtFunc.
func (e *Engine) AfterFunc(d Time, fn func(any), arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtFunc(e.now+d, fn, arg)
}

// Stop aborts a Run in progress after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state — clock at zero,
// sequence counter at zero, queue empty — while keeping the grown
// event free list and heap backing array. Any still-queued events are
// cancelled and recycled. A reset engine behaves bit-identically to a
// fresh one (event ordering depends only on (due, seq), both of which
// restart from zero), which is what lets warm-start calibration reuse
// one engine across measurements without perturbing a single result.
func (e *Engine) Reset() {
	if e.wheel != nil {
		e.wheel.reset(e.recycle)
	} else {
		for _, ev := range e.queue.ev {
			ev.index = -1
			ev.loc = locNone
			ev.dead = true
			e.recycle(ev)
		}
		e.queue.ev = e.queue.ev[:0]
	}
	e.now = 0
	e.seq = 0
	e.stopped = false
}

// Pending reports the number of events still queued.
func (e *Engine) Pending() int {
	if e.wheel != nil {
		return e.wheel.pending()
	}
	return e.queue.len()
}

// Step fires the next event, advancing the clock to its due time.
// It reports false if the queue is empty.
func (e *Engine) Step() bool {
	ev := e.popNext()
	if ev == nil {
		return false
	}
	ev.dead = true
	e.now = ev.due
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.fn()
	}
	// Recycle only after the callback returns: code running inside it
	// (the Cancel-then-reschedule pattern in contend and machine) may
	// still hold this handle, and a reuse before those references are
	// dropped would let a stale Cancel kill an unrelated event.
	e.recycle(ev)
	return true
}

// Run fires events until the queue empties or Stop is called.
// It returns the final clock value.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil fires events with due time <= deadline, then advances the
// clock to deadline if it has not already passed it.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		ev := e.peekNext()
		if ev == nil || ev.due > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunBefore fires events with due time strictly before deadline,
// leaving the clock at the last fired event — it never jumps forward
// to the deadline itself. This is the lookahead-window primitive used
// by Group.RunWindows: events at or past the window edge stay queued
// because a cross-engine message may still land before them.
func (e *Engine) RunBefore(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		ev := e.peekNext()
		if ev == nil || ev.due >= deadline {
			break
		}
		e.Step()
	}
	return e.now
}

// NextDue reports the due time and sequence number of the next pending
// event. ok is false when the engine is idle.
func (e *Engine) NextDue() (due Time, seq uint64, ok bool) {
	ev := e.peekNext()
	if ev == nil {
		return 0, 0, false
	}
	return ev.due, ev.seq, true
}

// SyncTo advances the clock to t without firing anything, so that
// relative scheduling (After/AfterFunc) issued by cross-engine callers
// lands at the right absolute time. Synchronizing backwards is a no-op;
// synchronizing past a pending event panics — it would reorder history.
func (e *Engine) SyncTo(t Time) {
	if t <= e.now {
		return
	}
	if ev := e.peekNext(); ev != nil && ev.due < t {
		panic(fmt.Sprintf("sim: SyncTo %v past pending event at %v", t, ev.due))
	}
	e.now = t
}
