package sim

import (
	"math/bits"
	"slices"
)

// This file implements the hierarchical timing-wheel event queue — the
// O(1) alternative to the indexed 4-ary heap for the simulation hot
// path. Each simulator schedules within a narrow band of delays
// relative to its own time scale — DRAM commands a few ns to ~100 ns
// ahead, scheduler task completions tens to hundreds of µs ahead — so
// a wheel whose tick fits the band turns those schedule/cancel/fire
// operations into array indexing where the heap pays a sift per
// operation.
//
// Layout: two wheel levels of 256 slots each over a per-engine tick —
// level 0 resolves single ticks across a 256-tick window, level 1
// resolves 256-tick spans across a 65536-tick window — plus an
// overflow min-heap (the existing eventQueue) for the sparse far
// future. Per-level occupancy bitmaps make "next non-empty slot" a
// handful of trailing-zero scans.
//
// Sizing the tick: an event due in the bucket already firing takes a
// sorted insert into it, and a drained bucket of more than 16 events
// takes a sort, so a tick much wider than the typical delay loses the
// wheel's advantage; an event due past level 0's window is linked into
// level 1 first and spilled down later, so a tick much narrower than
// the typical delay pays twice. Callers therefore pick the tick from
// their measured delay mix (NewWheelTick); the tick never changes what
// fires or in what order.
//
// Determinism contract (see DESIGN.md): the wheel fires events in
// exactly the heap's (due, seq) order. Bucketing is order-preserving
// because the tick index floor(due/tick) is monotone in due, every
// level-0 slot of the live window holds exactly one tick index, and a
// drained bucket is sorted by (due, seq) before any of it fires. Events
// scheduled for the bucket currently firing (due == now is the common
// case: callbacks chaining work at the same instant) are inserted into
// the sorted residue of that bucket, where their fresh sequence numbers
// place them after every already-queued event at the same due time —
// precisely the heap's insertion-order tie-break.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 2
	wheelWords  = wheelSlots / 64 // occupancy bitmap words per level

	// wheelSpan1 is the tick span of one full level-1 rotation: events
	// beyond it from the current window go to the overflow heap.
	wheelSpan1 = wheelSlots * wheelSlots
)

// DefaultWheelTick is NewWheel's level-0 bucket width, for engines
// without a measured delay mix: level 0 spans 16.4 µs and level 1
// 4.2 ms. The repository's simulators size their own ticks instead —
// the DRAM engines tick at the bus burst time (a few ns), where 64 ns
// buckets would gather most calibration events into the bucket already
// firing, and the scheduler engines at 4 µs, where their task-scale
// delays fall inside level 0.
const DefaultWheelTick = 64 * Nanosecond

// Event location codes stored in Event.loc. Non-negative values encode
// a wheel slot as level<<wheelBits | slot.
const (
	locNone int32 = -1 // not queued (fired, cancelled, or fresh)
	locHeap int32 = -2 // in the heap (main queue, or wheel overflow)
	locCur  int32 = -3 // in the wheel's sorted current bucket
)

// timingWheel is the wheel state hung off an Engine built by NewWheel.
type timingWheel struct {
	invTick float64 // ticks per second: tickOf(t) = floor(t*invTick)

	// cursor is the next tick index to drain: every event with a
	// smaller tick index has fired or sits in cur.
	cursor  uint64
	curTick uint64

	slots [wheelLevels][wheelSlots]*Event
	occ   [wheelLevels][wheelWords]uint64

	// cur is the bucket being fired, sorted by (due, seq); curPos is
	// the next position to pop. Event.index tracks positions so cancel
	// stays O(bucket).
	cur    []*Event
	curPos int

	// count is the number of events in slots plus the live tail of cur.
	count int

	// over holds events beyond the level-1 window; it drains into the
	// wheels as the windows rotate over it.
	over eventQueue
}

func newTimingWheel(tick Time) *timingWheel {
	if tick <= 0 {
		panic("sim: wheel tick must be positive")
	}
	return &timingWheel{invTick: 1 / float64(tick)}
}

// tickOf maps an absolute time to its tick index. The conversion is
// monotone (IEEE multiply and floor both are), which is all bucketing
// needs; boundary rounding merely moves an event between adjacent
// buckets whose drain order still respects (due, seq).
func (w *timingWheel) tickOf(t Time) uint64 {
	f := float64(t) * w.invTick
	if f >= maxWheelTick {
		return maxWheelTickIdx
	}
	return uint64(f)
}

// maxWheelTick guards the float-to-uint conversion: anything past it
// (including Never) saturates to maxWheelTickIdx and lives in the
// overflow heap forever.
const (
	maxWheelTick    = float64(1 << 62)
	maxWheelTickIdx = ^uint64(0)
)

// insert routes an event to the current bucket, a wheel slot, or the
// overflow heap.
func (w *timingWheel) insert(e *Event) {
	ti := w.tickOf(e.due)
	if ti < w.cursor {
		// The bucket for this tick is the one currently firing (the
		// engine clock is inside it). Join its sorted residue.
		w.insertCur(e)
		return
	}
	base0End := (w.cursor &^ wheelMask) + wheelSlots
	switch {
	case ti < base0End:
		w.link(0, int(ti&wheelMask), e)
	case ti < (w.cursor&^(wheelSpan1-1))+wheelSpan1:
		w.link(1, int((ti>>wheelBits)&wheelMask), e)
	default:
		w.over.push(e)
	}
}

// link prepends e to the slot list and marks occupancy.
func (w *timingWheel) link(level, slot int, e *Event) {
	e.loc = int32(level<<wheelBits | slot)
	e.prev = nil
	e.next = w.slots[level][slot]
	if e.next != nil {
		e.next.prev = e
	}
	w.slots[level][slot] = e
	w.occ[level][slot>>6] |= 1 << uint(slot&63)
	w.count++
}

// unlink removes e from its slot list, clearing occupancy if the slot
// empties.
func (w *timingWheel) unlink(e *Event) {
	level := int(e.loc) >> wheelBits
	slot := int(e.loc) & wheelMask
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		w.slots[level][slot] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if w.slots[level][slot] == nil {
		w.occ[level][slot>>6] &^= 1 << uint(slot&63)
	}
	e.next, e.prev = nil, nil
	e.loc = locNone
	w.count--
}

// insertCur places e into the sorted live tail of the current bucket.
// Positions before curPos have fired; e belongs after them because its
// due is >= now and its seq is newer than everything already there.
func (w *timingWheel) insertCur(e *Event) {
	i := len(w.cur)
	for i > w.curPos && before(e, w.cur[i-1]) {
		i--
	}
	w.cur = append(w.cur, nil)
	copy(w.cur[i+1:], w.cur[i:])
	w.cur[i] = e
	for j := i; j < len(w.cur); j++ {
		w.cur[j].index = j
	}
	e.loc = locCur
	w.count++
}

// removeCur deletes a cancelled event from the live tail of cur.
func (w *timingWheel) removeCur(e *Event) {
	i := e.index
	copy(w.cur[i:], w.cur[i+1:])
	w.cur[len(w.cur)-1] = nil
	w.cur = w.cur[:len(w.cur)-1]
	for j := i; j < len(w.cur); j++ {
		w.cur[j].index = j
	}
	e.index = -1
	e.loc = locNone
	w.count--
}

// scanOcc returns the first occupied slot >= from at the given level,
// or -1.
func (w *timingWheel) scanOcc(level, from int) int {
	word := from >> 6
	bits64 := w.occ[level][word] &^ ((1 << uint(from&63)) - 1)
	for {
		if bits64 != 0 {
			return word<<6 + bits.TrailingZeros64(bits64)
		}
		word++
		if word >= wheelWords {
			return -1
		}
		bits64 = w.occ[level][word]
	}
}

// advance drains the next non-empty bucket into cur, cascading level-1
// slots and overflow-heap spans down as the windows rotate. It reports
// false when no events remain anywhere.
func (w *timingWheel) advance() bool {
	w.cur = w.cur[:0]
	w.curPos = 0
	for {
		if w.count == 0 {
			if w.over.len() == 0 {
				return false
			}
			// Wheels empty: rotate both windows straight to the
			// overflow's earliest span instead of stepping 256 ticks at
			// a time through dead air.
			ti := w.tickOf(w.over.ev[0].due)
			if ti >= maxWheelTickIdx-wheelSpan1 {
				// Beyond the representable wheel horizon (Never and
				// friends): the window arithmetic would wrap, and the
				// overflow heap is the only store holding events — pop
				// its minimum straight into the firing position.
				e := w.over.pop()
				e.loc = locCur
				e.index = 0
				w.cur = append(w.cur, e)
				w.count++
				return true
			}
			if c := ti &^ wheelMask; c > w.cursor {
				w.cursor = c
			}
			w.refillFromHeap()
			continue
		}
		// Pull the cursor's surroundings down before scanning: the
		// overflow span of the current level-1 rotation, then the
		// level-1 slot covering the current level-0 window. Both pulls
		// are cheap no-ops when already done, and doing them here — not
		// only on the incremental step below — matters because
		// drainSlot0 can land the cursor exactly on a window or
		// rotation boundary (the drained tick was the window's last),
		// which the incremental step would otherwise walk straight
		// past, stranding that window's events for a full rotation.
		w.refillFromHeap()
		if s1 := int((w.cursor >> wheelBits) & wheelMask); w.slots[1][s1] != nil {
			w.spillLevel1(s1)
		}
		// Nearest level-0 slot in the live window.
		if s := w.scanOcc(0, int(w.cursor&wheelMask)); s >= 0 {
			ti := (w.cursor &^ wheelMask) | uint64(s)
			w.drainSlot0(s, ti)
			return true
		}
		// Level-0 window exhausted: move to the next one.
		w.cursor = (w.cursor &^ wheelMask) + wheelSlots
	}
}

// drainSlot0 moves the level-0 slot's list — all events of one tick —
// into cur, sorted by (due, seq). Buckets are usually small (DRAM
// latencies collide on a handful of events per tick), so an in-place
// insertion sort wins; past a threshold it falls back to pdqsort. Both
// are allocation-free, and stability is irrelevant because (due, seq)
// is a total order.
func (w *timingWheel) drainSlot0(slot int, ti uint64) {
	e := w.slots[0][slot]
	w.slots[0][slot] = nil
	w.occ[0][slot>>6] &^= 1 << uint(slot&63)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		e.loc = locCur
		w.cur = append(w.cur, e)
		e = next
	}
	cur := w.cur
	if len(cur) <= 16 {
		for i := 1; i < len(cur); i++ {
			ev := cur[i]
			j := i
			for j > 0 && before(ev, cur[j-1]) {
				cur[j] = cur[j-1]
				j--
			}
			cur[j] = ev
		}
	} else {
		slices.SortFunc(cur, cmpEvent)
	}
	for j := range cur {
		cur[j].index = j
	}
	w.curTick = ti
	w.cursor = ti + 1
}

// cmpEvent orders events by (due, seq) for slices.SortFunc.
func cmpEvent(a, b *Event) int {
	switch {
	case before(a, b):
		return -1
	case before(b, a):
		return 1
	default:
		return 0
	}
}

// spillLevel1 redistributes one level-1 slot — exactly one level-0
// window's worth of ticks — into level-0 slots.
func (w *timingWheel) spillLevel1(slot int) {
	e := w.slots[1][slot]
	w.slots[1][slot] = nil
	w.occ[1][slot>>6] &^= 1 << uint(slot&63)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		w.count-- // link re-counts it
		w.link(0, int(w.tickOf(e.due)&wheelMask), e)
		e = next
	}
}

// refillFromHeap drains overflow events that now fall inside the
// level-1 window into the wheels.
func (w *timingWheel) refillFromHeap() {
	end := (w.cursor &^ (wheelSpan1 - 1)) + wheelSpan1
	for w.over.len() > 0 && w.tickOf(w.over.ev[0].due) < end {
		e := w.over.pop()
		w.insert(e)
	}
}

// peek returns the next event to fire without consuming it, or nil.
func (w *timingWheel) peek() *Event {
	for w.curPos >= len(w.cur) {
		if !w.advance() {
			return nil
		}
	}
	return w.cur[w.curPos]
}

// pop consumes and returns the next event, or nil when empty.
func (w *timingWheel) pop() *Event {
	e := w.peek()
	if e == nil {
		return nil
	}
	w.cur[w.curPos] = nil
	w.curPos++
	w.count--
	e.index = -1
	e.loc = locNone
	return e
}

// pending reports the number of queued events, overflow included.
func (w *timingWheel) pending() int { return w.count + w.over.len() }

// reset empties every slot, the current bucket and the overflow heap,
// recycling the events through the engine's free list.
func (w *timingWheel) reset(recycle func(*Event)) {
	for level := 0; level < wheelLevels; level++ {
		for slot := 0; slot < wheelSlots; slot++ {
			for e := w.slots[level][slot]; e != nil; {
				next := e.next
				e.next, e.prev = nil, nil
				e.loc = locNone
				e.dead = true
				recycle(e)
				e = next
			}
			w.slots[level][slot] = nil
		}
		for i := range w.occ[level] {
			w.occ[level][i] = 0
		}
	}
	for _, e := range w.cur[w.curPos:] {
		e.loc = locNone
		e.index = -1
		e.dead = true
		recycle(e)
	}
	w.cur = w.cur[:0]
	w.curPos = 0
	for _, e := range w.over.ev {
		e.index = -1
		e.loc = locNone
		e.dead = true
		recycle(e)
	}
	w.over.ev = w.over.ev[:0]
	w.cursor = 0
	w.curTick = 0
	w.count = 0
}
