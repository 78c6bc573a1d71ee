package host

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// busy spins briefly so tasks have measurable, nonzero duration.
func busy(iters int) {
	x := 0
	for i := 0; i < iters; i++ {
		x += i
	}
	_ = x
}

// makePairs builds n instrumented pairs and returns shared counters:
// the per-pair execution counts and a live memory-task gauge.
func makePairs(n int, withScatter bool) (pairs []Pair, memRuns, compRuns, scatRuns *int64, liveMem, peakMem *int64) {
	memRuns, compRuns, scatRuns = new(int64), new(int64), new(int64)
	liveMem, peakMem = new(int64), new(int64)
	var mu sync.Mutex
	computeDone := make([]bool, n)
	memDone := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		p := Pair{
			Memory: func() {
				cur := atomic.AddInt64(liveMem, 1)
				for {
					old := atomic.LoadInt64(peakMem)
					if cur <= old || atomic.CompareAndSwapInt64(peakMem, old, cur) {
						break
					}
				}
				busy(2000)
				mu.Lock()
				memDone[i] = true
				mu.Unlock()
				atomic.AddInt64(memRuns, 1)
				atomic.AddInt64(liveMem, -1)
			},
			Compute: func() {
				mu.Lock()
				if !memDone[i] {
					panic("compute before memory")
				}
				computeDone[i] = true
				mu.Unlock()
				busy(8000)
				atomic.AddInt64(compRuns, 1)
			},
		}
		if withScatter {
			p.Scatter = func() {
				mu.Lock()
				if !computeDone[i] {
					panic("scatter before compute")
				}
				mu.Unlock()
				atomic.AddInt64(scatRuns, 1)
			}
		}
		pairs = append(pairs, p)
	}
	return pairs, memRuns, compRuns, scatRuns, liveMem, peakMem
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative workers", Config{Workers: -1}},
		{"negative W", Config{Workers: 4, W: -1}},
		{"static MTL unset", Config{Policy: Static, Workers: 4}},
		{"static MTL > workers", Config{Policy: Static, Workers: 4, MTL: 5}},
		{"MTL with adaptive policy", Config{Policy: Dynamic, Workers: 4, MTL: 2}},
		{"adaptive needs >= 2", Config{Policy: Dynamic, Workers: 1}},
		{"unknown policy", Config{Policy: Policy(99), Workers: 4, W: 4}},
		{"negative retry attempts", Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: -1}}},
		{"negative retry base delay", Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: -time.Millisecond}}},
		{"negative retry max delay", Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: 3, MaxDelay: -time.Millisecond}}},
		{"base delay above max delay", Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second, MaxDelay: time.Millisecond}}},
		{"retry multiplier below 1", Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: 3, Multiplier: 0.5}}},
		{"negative retry jitter", Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: 3, Jitter: -0.1}}},
		{"retry jitter >= 1", Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: 3, Jitter: 1.0}}},
		{"negative run timeout", Config{Workers: 4, RunTimeout: -time.Second}},
		{"negative stall timeout", Config{Workers: 4, StallTimeout: -time.Second}},
		{"negative stall fallback", Config{Workers: 4, StallTimeout: time.Second, StallFallbackAfter: -1}},
		{"stall fallback without watchdog", Config{Workers: 4, StallFallbackAfter: 2}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: invalid config accepted: %+v", c.name, c.cfg)
		}
	}
	for _, c := range []Config{
		{},
		{Workers: 4, Retry: RetryPolicy{MaxAttempts: 3}},
		{Workers: 4, StallTimeout: time.Second},
		{Workers: 4, StallTimeout: time.Second, StallFallbackAfter: 1},
		{Workers: 4, RunTimeout: time.Minute},
	} {
		if _, err := New(c); err != nil {
			t.Errorf("valid config %+v rejected: %v", c, err)
		}
	}
}

func TestPairSlotValidation(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	nop := func() {}
	nopErr := func() error { return nil }
	bad := []Pair{
		{Memory: nop, Compute: nop, MemoryErr: nopErr},                // both memory forms
		{Memory: nop, Compute: nop, ComputeErr: nopErr},               // both compute forms
		{Memory: nop, Compute: nop, Scatter: nop, ScatterErr: nopErr}, // both scatter forms
		{Compute: nop},      // memory missing
		{MemoryErr: nopErr}, // compute missing
	}
	for i, p := range bad {
		if _, err := rt.Run([]Pair{p}); err == nil {
			t.Errorf("bad pair %d accepted", i)
		}
	}
	// Error-returning forms are first-class.
	var ran int64
	ok := Pair{
		MemoryErr:  func() error { atomic.AddInt64(&ran, 1); return nil },
		ComputeErr: func() error { atomic.AddInt64(&ran, 1); return nil },
		ScatterErr: func() error { atomic.AddInt64(&ran, 1); return nil },
	}
	if _, err := rt.Run([]Pair{ok}); err != nil {
		t.Fatalf("error-form pair rejected: %v", err)
	}
	if ran != 3 {
		t.Errorf("error-form tasks ran %d times, want 3", ran)
	}
}

func TestTaskErrorSurfaces(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	boom := errors.New("disk on fire")
	pairs := []Pair{{
		Memory:     func() {},
		ComputeErr: func() error { return boom },
	}}
	_, err = rt.Run(pairs)
	if !errors.Is(err, boom) {
		t.Fatalf("task error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "pair 0 compute task failed") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestPanicDrainsSiblings(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, mem, comp, _, _, _ := makePairs(40, false)
	pairs[0].Compute = func() { panic("early boom") }
	st, runErr := rt.Run(pairs)
	if runErr == nil {
		t.Fatal("panic did not surface")
	}
	// The queues must have been drained: nowhere near all 40 pairs may
	// have executed after the first compute panicked.
	if got := atomic.LoadInt64(mem); got >= 40 {
		t.Errorf("all %d memory tasks ran despite the early panic (no drain)", got)
	}
	if st.CompletedPairs != int(atomic.LoadInt64(comp)) {
		t.Errorf("CompletedPairs = %d, counters say %d", st.CompletedPairs, *comp)
	}
	// The runtime must remain usable after the failed phase.
	ok, m2, c2, _, _, _ := makePairs(10, false)
	if _, err := rt.Run(ok); err != nil {
		t.Fatalf("runtime wedged after drain: %v", err)
	}
	if *m2 != 10 || *c2 != 10 {
		t.Errorf("post-drain run executed %d/%d, want 10/10", *m2, *c2)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Conventional: "conventional", Static: "static",
		Dynamic: "dynamic", OnlineExhaustive: "online-exhaustive",
	} {
		if p.String() != want {
			t.Errorf("Policy.String() = %q, want %q", p.String(), want)
		}
	}
}

func TestAllTasksRunOnceInOrder(t *testing.T) {
	rt, err := New(Config{Workers: 4, Policy: Static, MTL: 2, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, mem, comp, scat, _, _ := makePairs(50, true)
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if *mem != 50 || *comp != 50 || *scat != 50 {
		t.Errorf("runs = %d/%d/%d, want 50 each", *mem, *comp, *scat)
	}
	if st.Pairs != 50 || st.Elapsed <= 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestMTLInvariantHolds(t *testing.T) {
	for _, mtl := range []int{1, 2, 3} {
		rt, err := New(Config{Workers: 4, Policy: Static, MTL: mtl, W: 4})
		if err != nil {
			t.Fatal(err)
		}
		pairs, _, _, _, _, peak := makePairs(60, true)
		st, err := rt.Run(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt64(peak); got > int64(mtl) {
			t.Errorf("MTL=%d: observed %d concurrent memory tasks", mtl, got)
		}
		if st.MaxConcurrentM > mtl {
			t.Errorf("MTL=%d: runtime reported peak %d", mtl, st.MaxConcurrentM)
		}
		rt.Close()
	}
}

func TestDynamicAdaptsAndStaysLegal(t *testing.T) {
	rt, err := New(Config{Workers: 4, Policy: Dynamic, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, _, _, _, _, peak := makePairs(120, false)
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.MTLDecisions) == 0 {
		t.Error("dynamic runtime made no decision over 120 pairs")
	}
	if got := atomic.LoadInt64(peak); got > 4 {
		t.Errorf("memory concurrency %d exceeded worker count", got)
	}
	if st.FinalMTL < 1 || st.FinalMTL > 4 {
		t.Errorf("FinalMTL = %d out of range", st.FinalMTL)
	}
	if st.MeanTm <= 0 || st.MeanTc <= 0 {
		t.Errorf("mean durations not recorded: %+v", st)
	}
}

func TestOnlineExhaustiveRuns(t *testing.T) {
	rt, err := New(Config{Workers: 4, Policy: OnlineExhaustive, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, _, _, _, _, _ := makePairs(80, false)
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.MTLDecisions) == 0 {
		t.Error("online baseline made no decision")
	}
}

func TestRunPhases(t *testing.T) {
	rt, err := New(Config{Workers: 4, Policy: Dynamic, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	p1, _, _, _, _, _ := makePairs(40, false)
	p2, _, _, _, _, _ := makePairs(40, false)
	stats, err := rt.RunPhases([][]Pair{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("phase stats = %d, want 2", len(stats))
	}
}

func TestRunErrors(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(nil); err == nil {
		t.Error("empty Run accepted")
	}
	if _, err := rt.Run([]Pair{{Memory: func() {}}}); err == nil {
		t.Error("pair without compute accepted")
	}
	rt.Close()
	pairs, _, _, _, _, _ := makePairs(2, false)
	if _, err := rt.Run(pairs); err == nil {
		t.Error("Run after Close accepted")
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	rt, err := New(Config{Workers: 4, Policy: Static, MTL: 2, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, _, _, _, _, _ := makePairs(30, false)
	pairs[7].Compute = func() { panic("boom") }
	_, err = rt.Run(pairs)
	if err == nil {
		t.Fatal("panicking task did not surface as an error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "pair 7") {
		t.Errorf("error lacks context: %v", err)
	}
	// The runtime must remain usable after a failed phase.
	ok, _, _, _, _, _ := makePairs(10, false)
	if _, err := rt.Run(ok); err != nil {
		t.Fatalf("runtime wedged after panic: %v", err)
	}
}

func TestMemoryTaskPanic(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, _, _, _, _, _ := makePairs(10, false)
	pairs[3].Memory = func() { panic("mem boom") }
	if _, err := rt.Run(pairs); err == nil || !strings.Contains(err.Error(), "memory task") {
		t.Fatalf("memory panic mishandled: %v", err)
	}
}

func TestSingleWorkerCompletes(t *testing.T) {
	rt, err := New(Config{Workers: 1, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, mem, comp, _, _, _ := makePairs(10, true)
	if _, err := rt.Run(pairs); err != nil {
		t.Fatal(err)
	}
	if *mem != 10 || *comp != 10 {
		t.Errorf("single worker ran %d/%d, want 10/10", *mem, *comp)
	}
}

func TestMTLQueryIsSafeDuringRun(t *testing.T) {
	rt, err := New(Config{Workers: 4, Policy: Dynamic, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, _, _, _, _, _ := makePairs(60, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if k := rt.MTL(); k < 1 || k > 4 {
				t.Errorf("MTL() = %d mid-run", k)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if _, err := rt.Run(pairs); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestRunOverlapsComputeWithMemory pins the paper's mechanism: with a
// static MTL of 1, memory tasks are serialized, but a pair's compute
// task runs on its own worker while the next pairs' memory tasks go
// through the gate, so compute tasks of different pairs overlap and a
// phase takes far less than pairs x (Tm + Tc), measured. The tasks
// sleep, so the overlap does not depend on the number of CPUs.
func TestRunOverlapsComputeWithMemory(t *testing.T) {
	const (
		pairs = 40
		tm    = 200 * time.Microsecond
		tc    = 5 * time.Millisecond
	)
	rt, err := New(Config{Workers: 8, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var live, peak int64
	ps := make([]Pair, pairs)
	for i := range ps {
		ps[i] = Pair{
			Memory: func() { time.Sleep(tm) },
			Compute: func() {
				cur := atomic.AddInt64(&live, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				time.Sleep(tc)
				atomic.AddInt64(&live, -1)
			},
		}
	}
	t0 := time.Now()
	st, err := rt.Run(ps)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedPairs != pairs {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
	if p := atomic.LoadInt64(&peak); p < 2 {
		t.Fatalf("compute tasks never overlapped (peak %d concurrent)", p)
	}
	if serial := pairs * (st.MeanTm + st.MeanTc); elapsed > serial/2 {
		t.Fatalf("phase took %v, want well under the serial %v", elapsed, serial)
	}
}

// TestRunQueuedBehindWedgedRunHonoursContext: Run calls on one runtime
// run one at a time, but a call queued behind a wedged Run still
// returns when its context expires, and the runtime works once the
// wedged task returns.
func TestRunQueuedBehindWedgedRunHonoursContext(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	started, unwedge := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := rt.Run([]Pair{{Memory: func() { close(started); <-unwedge }, Compute: func() {}}})
		first <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	st, err := rt.RunContext(ctx, []Pair{{Memory: func() {}, Compute: func() {}}})
	if !errors.Is(err, context.DeadlineExceeded) || !st.Cancelled {
		t.Fatalf("queued RunContext = (cancelled %v, %v), want a cancelled deadline error", st.Cancelled, err)
	}
	if waited := time.Since(t0); waited > time.Second {
		t.Fatalf("queued RunContext returned after %v", waited)
	}
	close(unwedge)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run([]Pair{{Memory: func() {}, Compute: func() {}}}); err != nil {
		t.Fatalf("runtime unusable after the queued call gave up: %v", err)
	}
}
