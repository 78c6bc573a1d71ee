package host

import (
	"sync/atomic"
	"testing"
)

// trackedPairs builds n pairs whose memory tasks maintain a live
// counter and its high-water mark, so tests can observe the actual
// peak memory concurrency independently of Stats.
func trackedPairs(n, work int) (pairs []Pair, peak *int64) {
	live := new(int64)
	peak = new(int64)
	pairs = make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{
			Memory: func() {
				cur := atomic.AddInt64(live, 1)
				for {
					old := atomic.LoadInt64(peak)
					if cur <= old || atomic.CompareAndSwapInt64(peak, old, cur) {
						break
					}
				}
				busy(work)
				atomic.AddInt64(live, -1)
			},
			Compute: func() { busy(work / 2) },
		}
	}
	return pairs, peak
}

// TestStressStaticMTLInvariant hammers the gate with far more workers
// than slots: with 160 workers and MTL 3, the observed peak memory
// concurrency must never exceed 3 — the paper's hard invariant — on
// any of the repeated phases. Run with -race to also exercise the
// ring/gate memory-ordering claims.
func TestStressStaticMTLInvariant(t *testing.T) {
	const (
		workers = 160
		mtl     = 3
		pairs   = 400
	)
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: mtl})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		ps, peak := trackedPairs(pairs, 500)
		st, err := rt.Run(ps)
		if err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt64(peak); got > mtl {
			t.Fatalf("round %d: observed %d concurrent memory tasks, MTL is %d", round, got, mtl)
		}
		if st.MaxConcurrentM > mtl {
			t.Fatalf("round %d: Stats.MaxConcurrentM = %d, MTL is %d", round, st.MaxConcurrentM, mtl)
		}
		if st.CompletedPairs != pairs {
			t.Fatalf("round %d: completed %d of %d pairs", round, st.CompletedPairs, pairs)
		}
	}
}

// TestStressDynamicNeverExceedsDecidedLimit runs the adaptive
// controller under heavy worker oversubscription and checks the
// runtime never admitted more memory tasks than the largest limit the
// controller ever decided.
func TestStressDynamicNeverExceedsDecidedLimit(t *testing.T) {
	const (
		workers = 96
		pairs   = 300
	)
	rt, err := New(Config{Workers: workers, Policy: Dynamic, W: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ps, peak := trackedPairs(pairs, 500)
	st, err := rt.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	maxDecided := workers // the conventional limit before any decision
	for _, d := range st.MTLDecisions {
		if d > maxDecided {
			maxDecided = d
		}
	}
	if got := atomic.LoadInt64(peak); got > int64(maxDecided) {
		t.Fatalf("observed %d concurrent memory tasks, largest decided limit is %d", got, maxDecided)
	}
	if st.MaxConcurrentM > maxDecided {
		t.Fatalf("Stats.MaxConcurrentM = %d, largest decided limit is %d", st.MaxConcurrentM, maxDecided)
	}
	if st.CompletedPairs != pairs {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
}

// TestStressTinyPhasesNoLostWakeup is the lost-wakeup hunt: hundreds
// of workers racing into the parking lot while phases of a single pair
// start and finish back to back. A missed wakeup deadlocks a phase and
// the test times out; under -race it additionally checks the
// park/unpark ordering.
func TestStressTinyPhasesNoLostWakeup(t *testing.T) {
	const workers = 256
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	phases := 400
	if testing.Short() {
		phases = 100
	}
	for i := 0; i < phases; i++ {
		ps, _ := trackedPairs(1, 50)
		st, err := rt.Run(ps)
		if err != nil {
			t.Fatalf("phase %d: %v", i, err)
		}
		if st.CompletedPairs != 1 {
			t.Fatalf("phase %d: pair did not complete", i)
		}
	}
}

// TestStressMixedPhaseSizes alternates wide and 1-element phases on
// one runtime so leftover parked workers from a big phase must be
// correctly woken (or correctly left asleep) by the next tiny one.
func TestStressMixedPhaseSizes(t *testing.T) {
	rt, err := New(Config{Workers: 128, Policy: Static, MTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sizes := []int{200, 1, 1, 64, 1, 128, 1, 1, 1, 32}
	for round, n := range sizes {
		ps, peak := trackedPairs(n, 200)
		st, err := rt.Run(ps)
		if err != nil {
			t.Fatalf("round %d (n=%d): %v", round, n, err)
		}
		if st.CompletedPairs != n {
			t.Fatalf("round %d: completed %d of %d pairs", round, st.CompletedPairs, n)
		}
		if got := atomic.LoadInt64(peak); got > 2 {
			t.Fatalf("round %d: observed %d concurrent memory tasks, MTL is 2", round, got)
		}
	}
}
