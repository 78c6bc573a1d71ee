package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestWheelOrdering spans all three stores — current-window level-0
// slots, level-1 slots, and the overflow heap — and checks global
// (due, seq) fire order plus the final clock.
func TestWheelOrdering(t *testing.T) {
	e := NewWheel()
	var got []int
	dues := []Time{
		5 * Millisecond,              // overflow heap (past the level-1 window)
		3 * Microsecond,              // level-0 window
		100 * Microsecond,            // level-1 window
		10 * Nanosecond,              // first level-0 slot
		12 * Nanosecond,              // same slot, later due
		100*Microsecond + Nanosecond, // same level-1 slot, later due
	}
	order := []int{3, 4, 1, 2, 5, 0}
	for i, d := range dues {
		i := i
		e.At(d, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != len(order) {
		t.Fatalf("fired %d events, want %d", len(got), len(order))
	}
	for i := range order {
		if got[i] != order[i] {
			t.Fatalf("order = %v, want %v", got, order)
		}
	}
	if e.Now() != 5*Millisecond {
		t.Errorf("Now() = %v, want 5ms", e.Now())
	}
}

// TestWheelTieBreakInsertionOrder pins the determinism contract the
// heap provides: same-instant events fire in insertion order, both when
// scheduled up front and when chained from inside a callback at the
// exact current instant.
func TestWheelTieBreakInsertionOrder(t *testing.T) {
	e := NewWheel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Microsecond, func() {
			got = append(got, i)
			if i == 0 {
				// Chained same-instant event: must fire after every
				// already-queued event at this due time (newer seq).
				e.At(e.Now(), func() { got = append(got, 100) })
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

// TestWheelSameTickOrdering schedules distinct due times that share one
// 64 ns bucket: the drained bucket must still fire by (due, seq).
func TestWheelSameTickOrdering(t *testing.T) {
	e := NewWheel()
	var got []Time
	for _, d := range []Time{30 * Nanosecond, 10 * Nanosecond, 20 * Nanosecond, 10 * Nanosecond} {
		e.At(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10 * Nanosecond, 10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("within-tick order = %v, want %v", got, want)
		}
	}
}

// TestWheelCancelEverywhere cancels events while they sit in each of
// the wheel's stores: a level-0 slot, a level-1 slot, the overflow
// heap, and the sorted current bucket mid-drain.
func TestWheelCancelEverywhere(t *testing.T) {
	e := NewWheel()
	var got []int
	keep := func(i int) func() { return func() { got = append(got, i) } }

	l0 := e.At(3*Microsecond, func() { t.Error("cancelled L0 event ran") })
	e.At(3*Microsecond, keep(0))
	l1 := e.At(200*Microsecond, func() { t.Error("cancelled L1 event ran") })
	e.At(200*Microsecond, keep(1))
	far := e.At(20*Millisecond, func() { t.Error("cancelled overflow event ran") })
	e.At(20*Millisecond, keep(2))

	// curVictim shares an instant with its canceller, which is queued
	// first, so both land in the current bucket before either fires.
	var curVictim *Event
	e.At(Microsecond, func() { curVictim.Cancel() })
	curVictim = e.At(Microsecond, func() { t.Error("cancelled current-bucket event ran") })

	l0.Cancel()
	l1.Cancel()
	far.Cancel()
	l0.Cancel() // double-cancel stays a no-op
	e.Run()

	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// TestWheelFarFuture exercises the empty-wheel fast-forward: a lone
// event far past the level-1 window must fire without the cursor
// stepping through every intermediate bucket.
func TestWheelFarFuture(t *testing.T) {
	e := NewWheel()
	fired := false
	e.At(30*Second, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 30*Second {
		t.Fatalf("fired=%v Now=%v, want true and 30s", fired, e.Now())
	}
	// An event at Never saturates the tick conversion and stays in the
	// overflow heap until everything nearer has fired.
	e2 := NewWheel()
	var got []int
	e2.At(Never, func() { got = append(got, 1) })
	e2.At(Microsecond, func() { got = append(got, 0) })
	e2.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("got %v, want [0 1]", got)
	}
}

// TestWheelReset mirrors TestEngineReset on the wheel backend: a reset
// wheel engine behaves bit-identically to a fresh one and recycles the
// shells of everything still queued, in every store.
func TestWheelReset(t *testing.T) {
	run := func(e *Engine) []int {
		var got []int
		e.At(2*Microsecond, func() { got = append(got, 2) })
		e.At(1*Microsecond, func() { got = append(got, 1) })
		e.At(1*Microsecond, func() { got = append(got, 10) })
		e.After(3*Millisecond, func() { got = append(got, 3) })
		e.Run()
		return got
	}
	fresh := run(NewWheel())

	e := NewWheel()
	run(e)
	e.At(e.Now()+Microsecond, func() { t.Error("L0 event survived Reset") })
	e.At(e.Now()+Millisecond, func() { t.Error("L1 event survived Reset") })
	queued := e.At(e.Now()+Second, func() { t.Error("overflow event survived Reset") })
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now = %v pending = %d, want 0 and 0", e.Now(), e.Pending())
	}
	queued.Cancel() // stale handle after Reset: must be a no-op

	warm := run(e)
	if len(warm) != len(fresh) {
		t.Fatalf("reset engine fired %d events, fresh fired %d", len(warm), len(fresh))
	}
	for i := range fresh {
		if warm[i] != fresh[i] {
			t.Fatalf("reset engine order %v, fresh order %v", warm, fresh)
		}
	}
}

// TestWheelWindowBoundaryDrain pins the regression where draining the
// last tick of a level-0 window left the cursor exactly on the next
// window's boundary, and the scan loop stepped past that window without
// spilling its level-1 slot (or, at a rotation boundary, without
// refilling from the overflow heap) — stranding its events for a full
// rotation and firing them out of order.
func TestWheelWindowBoundaryDrain(t *testing.T) {
	// mid(k) is a due time safely inside tick k: k*tick itself can
	// round down a bucket (64 ns is not a power-of-two float), and the
	// point of this test is landing drains on exact window-final ticks.
	mid := func(k float64) Time { return Time(k+0.5) * DefaultWheelTick }
	t.Run("level1-spill", func(t *testing.T) {
		e := NewWheel()
		var got []int
		// A drains the last tick of window 0; B sits in the level-1
		// slot of window 1, C in the slot of window 2. The buggy scan
		// skipped window 1, firing C before B.
		e.At(mid(255), func() { got = append(got, 0) }) // A
		e.At(mid(300), func() { got = append(got, 1) }) // B
		e.At(mid(600), func() { got = append(got, 2) }) // C
		e.Run()
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("fire order = %v, want [0 1 2]", got)
		}
	})
	t.Run("rotation-refill", func(t *testing.T) {
		e := NewWheel()
		var got []int
		// A drains the last tick of rotation 0. B waits in the
		// overflow heap for the rotation-entry refill; E, scheduled
		// from A's callback into the same tick as B but with a later
		// sequence number, lands directly in the new rotation's level-0
		// window. The buggy scan skipped the refill, firing E before B.
		e.At(mid(wheelSpan1+64), func() { got = append(got, 1) }) // B
		e.At(mid(wheelSpan1-1), func() {                          // A
			got = append(got, 0)
			e.At(mid(wheelSpan1+64)+Nanosecond, func() { got = append(got, 2) }) // E
		})
		e.Run()
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("fire order = %v, want [0 1 2]", got)
		}
	})
}

// TestWheelRunBeforeAndSyncTo pins the Group primitives: RunBefore
// fires strictly-before events without jumping the clock, SyncTo
// advances the clock without firing, and SyncTo past a pending event
// panics.
func TestWheelRunBeforeAndSyncTo(t *testing.T) {
	for name, mk := range map[string]func() *Engine{"heap": New, "wheel": NewWheel} {
		t.Run(name, func(t *testing.T) {
			e := mk()
			var fired int
			for i := 1; i <= 5; i++ {
				e.At(Time(i)*Microsecond, func() { fired++ })
			}
			e.RunBefore(3 * Microsecond)
			if fired != 2 {
				t.Fatalf("RunBefore fired %d, want 2 (strictly before)", fired)
			}
			if e.Now() != 2*Microsecond {
				t.Fatalf("Now = %v after RunBefore, want 2us (no jump)", e.Now())
			}
			due, _, ok := e.NextDue()
			if !ok || due != 3*Microsecond {
				t.Fatalf("NextDue = %v %v, want 3us true", due, ok)
			}
			e.SyncTo(3 * Microsecond) // exactly at the pending event: allowed
			if e.Now() != 3*Microsecond {
				t.Fatalf("Now = %v after SyncTo, want 3us", e.Now())
			}
			e.SyncTo(Microsecond) // backwards: no-op
			if e.Now() != 3*Microsecond {
				t.Fatalf("backwards SyncTo moved the clock to %v", e.Now())
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("SyncTo past a pending event did not panic")
					}
				}()
				e.SyncTo(4 * Microsecond)
			}()
			e.Run()
			if fired != 5 {
				t.Fatalf("fired = %d after Run, want 5", fired)
			}
		})
	}
}

// TestWheelSteadyStateZeroAlloc pins the wheel's zero-allocation
// contract, matching TestEngineSteadyStateZeroAlloc on the heap.
func TestWheelSteadyStateZeroAlloc(t *testing.T) {
	e := NewWheel()
	s := &stepper{e: e}
	s.fn = s.tick
	e.AfterFunc(Nanosecond, s.fn, s)
	for i := 0; i < 512; i++ { // warm the free list and bucket backing
		e.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("steady-state wheel schedule/fire allocates %.2f allocs/op, want 0", avg)
	}
}

// --- differential driver: wheel vs reference heap -------------------

// firedAt is one trace entry of the differential driver.
type firedAt struct {
	label int
	at    Time
}

// diffTicks are the wheel ticks the differential driver checks against
// the heap: the default, DDR3-1066's TBurst (the DRAM engines' tick)
// and the scheduler simulation's 4 µs. None is a power of two in
// seconds, so due times on bucket edges exercise tickOf's float
// rounding.
var diffTicks = []Time{DefaultWheelTick, 7.5 * Nanosecond, 4 * Microsecond}

// scriptDelay decodes two bytes into a delay chosen to hit every store
// of a wheel ticking at tick: the current instant, sub-tick offsets,
// the level-0 window, the level-1 window, the overflow heap, and — the
// regime that found the window-boundary drain bug — delays landing
// exactly on (or one tick shy of) level-0 window and level-1 rotation
// boundaries.
func scriptDelay(a, b byte, tick Time) Time {
	m := Time(b)
	switch a % 7 {
	case 0:
		return 0
	case 1:
		return m * Nanosecond
	case 2:
		return m * tick
	case 3:
		return 20*Microsecond + m*Microsecond
	case 4:
		return m * wheelSlots * tick // window-aligned
	case 5:
		if b == 0 {
			return (wheelSpan1 - 1) * tick // last tick of a rotation
		}
		return (m*wheelSlots - 1) * tick // last tick of a window
	default:
		return wheelSpan1*tick + m*Millisecond // overflow heap
	}
}

// runScript interprets ops as a deterministic schedule/cancel/step
// program against one engine and returns the fire trace. The same
// script run on a heap engine and a wheel engine must produce the same
// trace — that is the wheel's whole correctness contract. tick picks
// the delays (see scriptDelay).
func runScript(e *Engine, ops []byte, tick Time) []firedAt {
	var got []firedAt
	var live []*Event
	label := 0
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		switch op % 4 {
		case 0: // schedule a plain event
			l, slot := label, len(live)
			label++
			live = append(live, nil)
			live[slot] = e.After(scriptDelay(a, b, tick), func() {
				live[slot] = nil // handle is dead: stop cancelling it
				got = append(got, firedAt{l, e.Now()})
			})
		case 1: // schedule an event that chains a same-instant follow-up
			l := label
			label++
			live = append(live, nil)
			slot := len(live) - 1
			live[slot] = e.After(scriptDelay(a, b, tick), func() {
				live[slot] = nil
				got = append(got, firedAt{l, e.Now()})
				e.At(e.Now(), func() { got = append(got, firedAt{l + 1<<20, e.Now()}) })
			})
		case 2: // fire a few events
			for k := 0; k <= int(a%8); k++ {
				if !e.Step() {
					break
				}
			}
		case 3: // cancel a still-live handle
			if len(live) > 0 {
				if ev := live[int(a)%len(live)]; ev != nil {
					ev.Cancel()
					live[int(a)%len(live)] = nil
				}
			}
		}
	}
	e.Run()
	return got
}

// diffScript runs ops on the heap and on a wheel of every diffTicks
// tick and fails at the first divergence.
func diffScript(t *testing.T, ops []byte) {
	t.Helper()
	for _, tick := range diffTicks {
		heap := runScript(New(), ops, tick)
		wheel := runScript(NewWheelTick(tick), ops, tick)
		if len(heap) != len(wheel) {
			t.Fatalf("tick %v: heap fired %d events, wheel fired %d (ops %v)", tick, len(heap), len(wheel), ops)
		}
		for i := range heap {
			if heap[i] != wheel[i] {
				t.Fatalf("tick %v: divergence at event %d: heap %+v, wheel %+v (ops %v)", tick, i, heap[i], wheel[i], ops)
			}
		}
	}
}

// TestWheelMatchesHeap runs the differential driver over generated op
// scripts via testing/quick: the wheel must agree with the reference
// heap on the exact fire order, including cancels, interleaved steps,
// and same-instant chained events.
func TestWheelMatchesHeap(t *testing.T) {
	prop := func(ops []byte) bool {
		diffScript(t, ops)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEventQueue is the open-ended form of TestWheelMatchesHeap: the
// fuzzer explores op scripts looking for any divergence between the
// timing wheel and the reference heap.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 1, 10, 1, 0, 0, 2, 3, 0, 3, 0, 0})
	f.Add([]byte{0, 4, 200, 0, 3, 50, 2, 7, 0, 0, 2, 64, 3, 1, 0})
	f.Add([]byte{1, 0, 0, 1, 2, 9, 2, 1, 0, 0, 4, 255, 3, 2, 0, 2, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*4096 {
			t.Skip("script too long")
		}
		diffScript(t, ops)
	})
}

// BenchmarkEngineStepWheel is BenchmarkEngineStep on the wheel backend:
// the single-pending-event ping-pong, the heap's best case.
func BenchmarkEngineStepWheel(b *testing.B) {
	e := NewWheel()
	var fn func()
	fn = func() { e.After(Nanosecond, fn) }
	e.After(Nanosecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchDeep measures the schedule/fire cycle with depth pending events,
// where the heap pays O(log n) sifts per operation and the wheel pays
// O(1). Events sit one default tick apart and each reschedules depth
// ticks ahead, so every bucket holds exactly one event: the wheel's
// best case, not the spacing DRAM traffic produces (that is
// BenchmarkEngineStepDRAMMix).
func benchDeep(b *testing.B, e *Engine, depth int) {
	var fn func()
	fn = func() { e.After(Time(depth)*DefaultWheelTick, fn) }
	for i := 0; i < depth; i++ {
		e.After(Time(i)*DefaultWheelTick, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStepDeep256(b *testing.B)      { benchDeep(b, New(), 256) }
func BenchmarkEngineStepWheelDeep256(b *testing.B) { benchDeep(b, NewWheel(), 256) }

// dramMixNs is the scheduled-delay mix (due - now) of DRAM calibration
// as 32 equal-probability quantiles, in ns: every event of
// MeasureTaskTime on DDR3-1066 with 1 and 2 channels, k = 1..8, six
// 512 KiB tasks per stream. Half the events are due within 23 ns, nine
// in ten within 64 ns.
var dramMixNs = [32]float64{
	2.2, 2.8, 3.2, 3.7, 4.2, 4.7, 5.2, 5.7,
	13, 13, 13, 13, 13, 13, 13, 20.5,
	26.8, 33.3, 36.2, 38.8, 41.5, 44.3, 46.3, 47,
	48.4, 51, 53.1, 55.5, 58.5, 77, 106.4, 136.8,
}

// BenchmarkEngineStepDRAMMix measures the schedule/fire cycle on
// calibration's own traffic: 16 pending events (the median depth of a
// k = 4 calibration point), each rescheduling after a seeded draw from
// dramMixNs. It runs on the heap, on the default 64 ns wheel and on a
// wheel ticking at DDR3-1066's TBurst, the tick the DRAM engines use.
func BenchmarkEngineStepDRAMMix(b *testing.B) {
	const depth = 16
	rng := rand.New(rand.NewPCG(1, 2))
	var delays [4096]Time
	for i := range delays {
		delays[i] = Time(dramMixNs[rng.IntN(len(dramMixNs))]) * Nanosecond
	}
	for _, c := range []struct {
		name string
		eng  func() *Engine
	}{
		{"heap", New},
		{"wheel64ns", NewWheel},
		{"wheelTBurst", func() *Engine { return NewWheelTick(7.5 * Nanosecond) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := c.eng()
			next := 0
			var fn func()
			fn = func() {
				e.After(delays[next%len(delays)], fn)
				next++
			}
			for i := 0; i < depth; i++ {
				fn()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
