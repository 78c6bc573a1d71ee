package host

import "runtime"

// Adaptive spin-then-park: a worker that finds nothing runnable no
// longer parks unconditionally — it first spins for a bounded budget,
// polling its wakeup token and the admitted rings, and only then blocks
// on the parker channel. At high submit rates the gap between "worker
// goes idle" and "next job published" is far shorter than a park/unpark
// round trip through the lot lock and the channel, so the spin converts
// a sleep-and-wake into a couple of cache-line loads. The budget is
// calibrated per worker from an EWMA of its recent idle-gap durations:
// a worker whose gaps are long stops spinning entirely (the park was
// going to happen anyway — burning the budget first only costs CPU),
// and the lot caps concurrent spinners at half the schedulable
// parallelism so a drained phase tail cannot spin every core. On
// GOMAXPROCS=1 the cap is zero and every park is immediate — spinning
// on a single processor can only delay the goroutine that would
// publish the work being waited for.
//
// The spin never replaces the lot protocol, it runs inside it: the
// worker is already enqueued when it spins, so the existing targeted
// unpark path covers it (a token sent mid-spin is consumed by the
// spin's non-blocking poll), and a budget that expires falls through
// to exactly the blocking park the pre-spin runtime performed.

const (
	// spinInitNs is the optimistic first budget of a worker that has
	// not measured an idle gap yet.
	spinInitNs = 2 << 10
	// spinMaxNs bounds any single pre-park spin.
	spinMaxNs = 16 << 10
	// spinCutoffNs disables spinning once the EWMA idle gap exceeds it:
	// the worker is parking for long spells, so the budget would expire
	// fruitlessly on (nearly) every cycle.
	spinCutoffNs = 64 << 10
	// spinYieldEvery inserts a runtime.Gosched every this many probe
	// iterations, so a spinning worker cannot monopolise its P against
	// the very goroutine that would hand it work.
	spinYieldEvery = 16
)

// spinBudgetNs derives one pre-park spin budget from ewma, the
// worker's smoothed recent idle-gap duration in nanoseconds.
func spinBudgetNs(ewma int64) int64 {
	if ewma > spinCutoffNs {
		return 0
	}
	b := 2 * ewma
	if b < spinInitNs {
		b = spinInitNs
	}
	if b > spinMaxNs {
		b = spinMaxNs
	}
	return b
}

// foldIdleGap folds one observed idle-gap duration into the EWMA
// (weight 1/4 on the new sample — reactive enough to shut spinning off
// within a few long parks, smooth enough to ride out one outlier).
func foldIdleGap(ewma, gapNs int64) int64 {
	return (3*ewma + gapNs) / 4
}

// spinnerCap is the lot-wide concurrent-spinner bound: half the
// schedulable parallelism, hence zero on a single processor.
func spinnerCap() int64 {
	return int64(runtime.GOMAXPROCS(0)) / 2
}
