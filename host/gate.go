package host

import (
	"math"
	"sync"
	"sync/atomic"
)

// gate is the atomic-counter MTL gate: admission of a memory-class
// task is one CAS on the in-flight counter against the current limit —
// no lock anywhere on the hot path. The limit mirrors the controller's
// MTL() (stored under Runtime.ctrlMu whenever the controller moves it),
// so workers never touch the controller to ask permission.
//
// The gate spans sessions on purpose: a worker wedged in user code
// from an aborted Run still holds its slot until the task returns, so
// the paper's hard invariant — never more than MTL memory tasks in
// flight — holds across overlapping session teardown.
//
// Layout: limit is read-mostly — every admission loads it, pollers
// (Runtime.MTL, watchdogs, samplers) load it, and only the controller
// stores it — while active/peak absorb a CAS per admission and an add
// per release. Packed together (the pre-padding layout) every
// admission CAS invalidated the line under all the limit readers;
// padded apart, readers of the mirrored limit keep their line in
// shared state across admissions. The trailing pad strides the struct
// to two full lines so adjacent per-domain gates in Runtime.gates
// never share a line either. TestLayoutHotStructs pins the offsets.
type gate struct {
	limit  atomic.Int64 // current MTL, mirrored from the controller (read-mostly)
	_      [56]byte
	active atomic.Int64 // memory-class tasks in flight (CAS-hot)
	peak   atomic.Int64 // high-water mark of active, reset per Run
	_      [48]byte
}

// tryAcquire claims one memory-task slot if the gate is open.
func (g *gate) tryAcquire() bool { return g.tryAcquireN(1) == 1 }

// tryAcquireN claims up to max slots in one CAS and reports how many it
// got (0 when the gate is full or max <= 0). The admission check and
// the increment are a single CAS, so two racing pumps can never both
// slip through the last slot. The pump admits a whole run of queued
// jobs per gate transition this way: one CAS where per-job admission
// would retry max times under contention.
func (g *gate) tryAcquireN(max int64) int64 {
	if max <= 0 {
		return 0
	}
	for {
		a := g.active.Load()
		free := g.limit.Load() - a
		if free <= 0 {
			return 0
		}
		n := free
		if n > max {
			n = max
		}
		if g.active.CompareAndSwap(a, a+n) {
			top := a + n
			for {
				p := g.peak.Load()
				if top <= p || g.peak.CompareAndSwap(p, top) {
					return n
				}
			}
		}
	}
}

// releaseN returns n slots at once (the batched counterpart of
// release).
func (g *gate) releaseN(n int64) {
	if n <= 0 {
		return
	}
	if g.active.Add(-n) < 0 {
		panic("host: gate released below zero")
	}
}

// release returns one slot.
func (g *gate) release() { g.releaseN(1) }

// resetPeak restarts the per-session high-water mark at the current
// occupancy (slots may still be held by an aborted Run's wedged
// tasks).
func (g *gate) resetPeak() {
	g.peak.Store(g.active.Load())
}

// parker is one worker's wakeup slot: a 1-buffered token channel. The
// discipline — a token is sent only after the parker is popped from
// the lot, and the owner drains before re-enqueueing — guarantees at
// most one token is ever outstanding, so sends never block.
type parker struct {
	token  chan struct{}
	queued bool // guarded by lot.mu
}

// lot is the parked-waiter list: workers that found no admitted job
// enqueue themselves and block on their token. Every admission wakes
// exactly as many workers as it admitted jobs; only the events that
// can satisfy many at once (MTL widened by degradation, session end)
// wake them all. The lock guards only the waiter list; workers with
// work in hand never touch it.
type lot struct {
	mu     sync.Mutex
	parked []*parker
	// waiting mirrors len(parked) (stored under mu) so an admission that
	// finds nobody parked skips the lock: a parker enqueues before its
	// re-scan and a pump pushes before it loads waiting, so one of the
	// two always sees the other.
	waiting atomic.Int64

	// spinners counts workers currently in the adaptive pre-park spin
	// (spin.go). It caps concurrent spinning so burst arrivals get
	// low-latency handoff without idle workers burning every core, and
	// is padded off the mutex's line so spin entry/exit never bounces
	// the lock word the unpark paths take.
	_        [24]byte
	spinners atomic.Int64
	_        [56]byte
}

// beginSpin claims one of the lot's spin slots (at most max concurrent
// spinners). On false the caller parks immediately.
func (l *lot) beginSpin(max int64) bool {
	if max <= 0 {
		return false
	}
	for {
		n := l.spinners.Load()
		if n >= max {
			return false
		}
		if l.spinners.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// endSpin returns a spin slot.
func (l *lot) endSpin() { l.spinners.Add(-1) }

// enqueue registers p as parked. Callers must not hold lot.mu. The
// caller re-scans for work *after* enqueueing: any job published after
// that re-scan finds p in the list and wakes it, so no wakeup is lost
// (the Dekker-style store/check orders of parker and publisher cross).
func (l *lot) enqueue(p *parker) {
	select {
	case <-p.token: // drop a stale token from a wake we never consumed
	default:
	}
	l.mu.Lock()
	p.queued = true
	l.parked = append(l.parked, p)
	l.waiting.Store(int64(len(l.parked)))
	l.mu.Unlock()
}

// cancel withdraws p after its post-enqueue re-scan found work. If an
// unparker popped p concurrently, its token is in flight — consume it
// so the next enqueue starts clean.
func (l *lot) cancel(p *parker) {
	l.mu.Lock()
	if p.queued {
		p.queued = false
		for i := len(l.parked) - 1; i >= 0; i-- { // LIFO: self is near the end
			if l.parked[i] == p {
				l.parked = append(l.parked[:i], l.parked[i+1:]...)
				l.waiting.Store(int64(len(l.parked)))
				break
			}
		}
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	<-p.token
}

// unparkN wakes up to n of the most recently parked workers (cache
// warm, and the oldest sleepers stay asleep under light load) under a
// single lock acquisition and reports how many it woke; the caller
// spawns fresh workers for the rest. Sending under the lock never
// blocks (see parker) and keeps the wake allocation-free.
func (l *lot) unparkN(n int) int {
	if n <= 0 || l.waiting.Load() == 0 {
		return 0
	}
	l.mu.Lock()
	n = min(n, len(l.parked))
	for _, p := range l.parked[len(l.parked)-n:] {
		p.queued = false
		p.token <- struct{}{}
	}
	l.parked = l.parked[:len(l.parked)-n]
	l.waiting.Store(int64(len(l.parked)))
	l.mu.Unlock()
	return n
}

// unparkAll wakes every parked worker.
func (l *lot) unparkAll() { l.unparkN(math.MaxInt) }
