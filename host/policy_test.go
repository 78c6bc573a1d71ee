package host

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memthrottle/internal/core"
)

// fixedDecision is a test policy that returns the same decision at
// every window boundary; with W = 1 the limits take effect after the
// first completed pair.
type fixedDecision struct {
	d core.Decision
}

func (p *fixedDecision) Name() string                           { return "test-fixed" }
func (p *fixedDecision) Observe(core.WindowStats) core.Decision { return p.d }

// primeThrottler runs a couple of trivial class-0 pairs through rt so
// the plugged policy observes at least one window and its decision
// (class limits, blacklist bits) is published before the test proper.
func primeThrottler(t *testing.T, rt *Runtime) {
	t.Helper()
	pairs := []Pair{
		{Memory: func() {}, Compute: func() {}},
		{Memory: func() {}, Compute: func() {}},
	}
	if _, err := rt.Run(pairs); err != nil {
		t.Fatalf("priming run: %v", err)
	}
}

func TestThrottlerConfigValidation(t *testing.T) {
	th := core.NewPolicyThrottler(&fixedDecision{}, 1, 4)
	invalid := []struct {
		name string
		cfg  Config
	}{
		{"throttler with MTL", Config{Workers: 4, Throttler: th, MTL: 2}},
		{"throttler with policy", Config{Workers: 4, Throttler: th, Policy: Dynamic, W: 8}},
		{"negative stall recover", Config{Workers: 4, StallTimeout: time.Second, StallRecoverAfter: -1}},
		{"stall recover without watchdog", Config{Workers: 4, StallRecoverAfter: 2}},
	}
	for _, c := range invalid {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
	for _, cfg := range []Config{
		{Workers: 4, Throttler: th},
		{Workers: 4, StallTimeout: time.Second, StallRecoverAfter: 2},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("valid config %+v rejected: %v", cfg, err)
		}
	}

	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bad := []Pair{{Memory: func() {}, Compute: func() {}, Class: core.MaxClasses}}
	if _, err := rt.Run(bad); err == nil {
		t.Error("pair with out-of-range class accepted")
	}
	bad[0].Class = -1
	if _, err := rt.Run(bad); err == nil {
		t.Error("pair with negative class accepted")
	}
}

// TestClassLimitEnforcedInRun pins the batch path's per-class gate:
// once the policy caps class 1 at 2 concurrent memory tasks, the
// observed peak concurrency of class-1 memory tasks never exceeds it,
// and every pair still completes.
func TestClassLimitEnforcedInRun(t *testing.T) {
	const cap = 2
	pol := &fixedDecision{d: core.Decision{
		ClassLimit: []int{0, cap},
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   8,
		Throttler: core.NewPolicyThrottler(pol, 1, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	var live, peak int64
	var pairs []Pair
	for i := 0; i < 24; i++ {
		pairs = append(pairs, Pair{
			Class: 1,
			Memory: func() {
				cur := atomic.AddInt64(&live, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				time.Sleep(500 * time.Microsecond)
				atomic.AddInt64(&live, -1)
			},
			Compute: func() {},
		})
	}
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedPairs != len(pairs) {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, len(pairs))
	}
	if p := atomic.LoadInt64(&peak); p > cap {
		t.Fatalf("class-1 memory concurrency peaked at %d, cap is %d", p, cap)
	}
}

// TestClassCapLongRun runs a long phase entirely in a class capped at
// 1 while the gate admits 8: nearly every admission attempt finds the
// class full. Each queued job must be looked at a bounded number of
// times, not once per pump, or the phase goes quadratic in its length;
// re-queueing a capped job must not allocate, so the phase allocates
// far fewer objects than it has pairs.
func TestClassCapLongRun(t *testing.T) {
	const pairs = 4000
	pol := &fixedDecision{d: core.Decision{
		ClassLimit: []int{0, 1},
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   8,
		Throttler: core.NewPolicyThrottler(pol, 1, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	var live, peak int64
	ps := make([]Pair, pairs)
	for i := range ps {
		ps[i] = Pair{
			Class: 1,
			Memory: func() {
				cur := atomic.AddInt64(&live, 1)
				if cur > atomic.LoadInt64(&peak) {
					atomic.StoreInt64(&peak, cur)
				}
				atomic.AddInt64(&live, -1)
			},
			Compute: func() {},
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := rt.Run(ps)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedPairs != pairs {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > pairs/4 {
		t.Errorf("a %d-pair capped phase made %d allocations", pairs, allocs)
	}
	if p := atomic.LoadInt64(&peak); p > 1 {
		t.Fatalf("class-1 memory concurrency peaked at %d, cap is 1", p)
	}
}

// TestBlacklistShedsAtServeIngress pins the serve path's containment
// half: once the policy demotes class 1, Submit refuses its jobs with
// ErrBlacklisted while class-0 traffic flows untouched.
func TestBlacklistShedsAtServeIngress(t *testing.T) {
	pol := &fixedDecision{d: core.Decision{
		Blacklist:  1 << 1,
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   4,
		Throttler: core.NewPolicyThrottler(pol, 1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	srv, err := rt.Serve(ServeConfig{Queue: 64, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	attacker := Pair{Class: 1, Memory: func() {}, Compute: func() {}}
	for i := 0; i < 5; i++ {
		if err := srv.Submit(attacker); !errors.Is(err, ErrBlacklisted) {
			t.Fatalf("blacklisted submit %d: got %v, want ErrBlacklisted", i, err)
		}
	}
	var done int64
	victim := Pair{Memory: func() {}, Compute: func() { atomic.AddInt64(&done, 1) }}
	for i := 0; i < 20; i++ {
		if err := srv.Submit(victim); err != nil {
			t.Fatalf("victim submit %d: %v", i, err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Blacklisted != 5 {
		t.Errorf("Blacklisted = %d, want 5", st.Blacklisted)
	}
	if st.Completed != 20 || atomic.LoadInt64(&done) != 20 {
		t.Errorf("victim jobs: completed %d, executed %d, want 20", st.Completed, done)
	}
}

// TestServeClassCapCompletes pins the serve path's held-list: jobs of
// a class capped at 1 are parked rather than dropped, serialize on the
// class slot, and all complete.
func TestServeClassCapCompletes(t *testing.T) {
	pol := &fixedDecision{d: core.Decision{
		ClassLimit: []int{0, 1},
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   4,
		Throttler: core.NewPolicyThrottler(pol, 1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	srv, err := rt.Serve(ServeConfig{Queue: 64, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	var live, peak int64
	capped := Pair{
		Class: 1,
		Memory: func() {
			cur := atomic.AddInt64(&live, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			atomic.AddInt64(&live, -1)
		},
		Compute: func() {},
	}
	const jobs = 16
	for i := 0; i < jobs; i++ {
		if err := srv.Submit(capped); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != jobs {
		t.Fatalf("completed %d of %d class-capped jobs", st.Completed, jobs)
	}
	if p := atomic.LoadInt64(&peak); p > 1 {
		t.Fatalf("class-1 memory concurrency peaked at %d, cap is 1", p)
	}
}

// TestServeWatchdogDegradeAndRecover pins the serving session's stall
// watchdog end to end: a wedged memory task trips ForceConventional
// mid-session, and once the wedge clears, StallRecoverAfter clean
// scans re-arm the controller. The batch path already covers the
// degrade half (TestWatchdogFallbackVisible); recovery only exists in
// serving mode, where the session outlives the stall storm.
func TestServeWatchdogDegradeAndRecover(t *testing.T) {
	rt, err := New(Config{
		Workers:            4,
		Policy:             Dynamic,
		W:                  4,
		StallTimeout:       20 * time.Millisecond,
		StallFallbackAfter: 1,
		StallRecoverAfter:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	srv, err := rt.Serve(ServeConfig{Queue: 64, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	wedge := make(chan struct{})
	var once sync.Once
	stuck := Pair{
		Memory:  func() { <-wedge },
		Compute: func() {},
	}
	if err := srv.Submit(stuck); err != nil {
		t.Fatal(err)
	}

	// The watchdog ticks at StallTimeout/4; give it several periods to
	// flag the stall and pin the controller to the conventional MTL.
	// Runtime.Health reads the controller under ctrlMu, the same lock
	// the watchdog mutates it under.
	deadline := time.After(5 * time.Second)
	for !rt.Health().Degraded {
		select {
		case <-deadline:
			once.Do(func() { close(wedge) })
			t.Fatal("controller never degraded to the conventional MTL")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if rt.MTL() != 4 {
		t.Errorf("degraded MTL = %d, want the conventional 4", rt.MTL())
	}
	once.Do(func() { close(wedge) })

	// With the wedge cleared, keep light traffic flowing and wait for
	// StallRecoverAfter clean scans to re-arm MTL selection.
	rearmed := false
	for i := 0; i < 400 && !rearmed; i++ {
		_ = srv.Submit(Pair{Memory: func() {}, Compute: func() {}})
		time.Sleep(5 * time.Millisecond)
		rearmed = !rt.Health().Degraded
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Stalls < 1 {
		t.Errorf("Stalls = %d, want >= 1", st.Stalls)
	}
	if !st.Degraded {
		t.Error("ServeStats.Degraded = false after a stall storm")
	}
	if !rearmed || st.Rearms < 1 {
		t.Errorf("controller never re-armed: rearmed=%v Rearms=%d", rearmed, st.Rearms)
	}
}
