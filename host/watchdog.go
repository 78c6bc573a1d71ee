package host

import (
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
)

// flightRec tracks one worker's in-flight task for the stall watchdog.
// All fields are atomics: the worker publishes set/clear without taking
// any lock, and the watchdog scans without stopping the world. The pad
// strides the record to a full cache line: records live in one
// per-worker array and set/clear run once per task attempt, so two
// unpadded records per line would make every worker's attempt
// bookkeeping invalidate its neighbour's.
type flightRec struct {
	pair    atomic.Int64 // the job's seq: pair index (Run) or submission number (Serve)
	class   atomic.Int64 // traffic class, for the stall signal
	start   atomic.Int64 // attempt start, UnixNano; 0 = idle
	stalled atomic.Bool  // already flagged; a task stalls at most once
	_       [36]byte
}

// set registers the start of one task attempt. Order matters: the pair
// is published before the start timestamp arms the watchdog.
func (f *flightRec) set(seq int64, class int) {
	f.pair.Store(seq)
	f.class.Store(int64(class))
	f.stalled.Store(false)
	f.start.Store(time.Now().UnixNano())
}

// clear disarms the record after the task returns.
func (f *flightRec) clear() {
	f.start.Store(0)
}

// watchdog periodically scans the flight registry for tasks that have
// been running longer than Config.StallTimeout. A flagged task is
// recorded in the session's stall statistics, and the pool grows by a
// replacement worker so the session keeps moving around it. Once the
// session accumulates Config.StallFallbackAfter stalls the runtime no
// longer trusts its task timings and degrades gracefully: the Dynamic
// controller is pinned to the conventional MTL (= workers) so a wedged
// memory task can never starve the session through a tight throttle.
// With Config.StallRecoverAfter > 0, that many consecutive clean scans
// (no task over the stall timeout — the attacker stopped or was
// contained) re-arm the controller and restart MTL selection. The
// watchdog exits when the session ends.
func (s *Server) watchdog() {
	r := s.rt
	t := time.NewTicker(max(r.cfg.StallTimeout/4, 200*time.Microsecond))
	defer t.Stop()
	clean := 0
	for {
		select {
		case <-s.drained:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		dirty := false
		for i := range s.flight {
			f := &s.flight[i]
			start := f.start.Load()
			if start == 0 || now-start <= int64(r.cfg.StallTimeout) {
				continue
			}
			dirty = true
			if f.stalled.Load() {
				continue
			}
			f.stalled.Store(true)
			s.stallMu.Lock()
			s.stalls++
			s.stalledSeqs = append(s.stalledSeqs, f.pair.Load())
			degrade := s.stalls >= int64(r.cfg.StallFallbackAfter)
			s.stallMu.Unlock()
			if r.obs != nil {
				r.obs.OnSignal(int(f.class.Load()), core.SignalStall)
			}
			s.spawnWorker()
			if degrade && r.degradeController() {
				s.stallMu.Lock()
				s.degraded = true
				s.stallMu.Unlock()
				// The limit widened to the worker count: admit and wake.
				s.pumpAll()
				s.lot.unparkAll()
			}
		}
		if dirty {
			clean = 0
			continue
		}
		clean++
		if ra := r.cfg.StallRecoverAfter; ra > 0 && clean >= ra {
			clean = 0
			if r.rearmController() {
				s.stallMu.Lock()
				s.rearms++
				s.stallMu.Unlock()
				s.pumpAll()
			}
		}
	}
}

// degradeController pins an adaptive Dynamic controller to the
// conventional MTL and mirrors the widened limit into every gate.
// Reports false for non-Dynamic or already-degraded controllers.
func (r *Runtime) degradeController() bool {
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	d, ok := r.th.(*core.Dynamic)
	if !ok || d.Degraded() {
		return false
	}
	d.ForceConventional()
	r.setLimit(int64(d.MTL()))
	return true
}

// rearmController lifts a degraded Dynamic controller's fallback,
// restarting MTL selection, and mirrors the new probe limit into the
// gates. Reports false when there is nothing to re-arm.
func (r *Runtime) rearmController() bool {
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	d, ok := r.th.(*core.Dynamic)
	if !ok || !d.Degraded() {
		return false
	}
	d.Rearm()
	r.setLimit(int64(d.MTL()))
	return true
}
