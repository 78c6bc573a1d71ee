package simsched

import (
	"testing"

	"memthrottle/internal/core"
	"memthrottle/internal/workload"
)

// serveCfg is the shared test configuration: the default i7-860-like
// machine with mild noise so runs are cheap but non-trivial.
func serveCfg(seed int64) Config {
	cfg := Default(testMem())
	cfg.NoiseSigma = 0.05
	cfg.Seed = seed
	return cfg
}

func serveSpec(rate float64, jobs, queue int, seed int64) ServeSpec {
	return ServeSpec{
		Arrivals: workload.NewPoisson(rate, seed),
		Jobs:     jobs,
		Gather:   256 << 10,
		Compute:  2e-4,
		Queue:    queue,
	}
}

// TestServeRunDeterministic requires bit-identical results — counters,
// histograms, quantiles — for identically seeded runs.
func TestServeRunDeterministic(t *testing.T) {
	run := func() MixResult {
		return ServeRun(serveCfg(3), serveSpec(2000, 4000, 64, 17), core.Fixed{K: 2})
	}
	a, b := run(), run()
	x, y := a.ByClass[0], b.ByClass[0]
	if x.Arrived != y.Arrived || x.Completed != y.Completed || x.Dropped != y.Dropped {
		t.Fatalf("counters differ across identical runs: %+v vs %+v", x, y)
	}
	if a.Makespan != b.Makespan || a.Goodput != b.Goodput {
		t.Fatalf("timing differs across identical runs: %v/%v vs %v/%v",
			a.Makespan, a.Goodput, b.Makespan, b.Goodput)
	}
	if x.Queue != y.Queue || x.Sojourn != y.Sojourn {
		t.Fatal("latency histograms differ across identical runs")
	}
}

// TestServeRunConservation checks arrival accounting: every arrival is
// either completed or dropped, and both histograms hold exactly the
// completed jobs.
func TestServeRunConservation(t *testing.T) {
	// Overload on purpose so drops actually happen.
	res := ServeRun(serveCfg(5), serveSpec(20000, 6000, 16, 23), core.Fixed{K: 1})
	oc := res.ByClass[0]
	if oc.Arrived != 6000 {
		t.Fatalf("Arrived = %d, want 6000", oc.Arrived)
	}
	if oc.Completed+oc.Dropped != oc.Arrived {
		t.Fatalf("completed %d + dropped %d != arrived %d", oc.Completed, oc.Dropped, oc.Arrived)
	}
	if oc.Dropped == 0 {
		t.Error("overloaded bounded queue shed nothing; the test is not exercising shedding")
	}
	if got := oc.Queue.Count(); got != uint64(oc.Completed) {
		t.Errorf("queue histogram holds %d samples, want %d", got, oc.Completed)
	}
	if got := oc.Sojourn.Count(); got != uint64(oc.Completed) {
		t.Errorf("sojourn histogram holds %d samples, want %d", got, oc.Completed)
	}
	if res.PeakQueue > 16 {
		t.Errorf("PeakQueue = %d exceeds the configured bound 16", res.PeakQueue)
	}
}

// TestServeRunUnboundedQueue checks the Queue <= 0 contrast: nothing is
// dropped, everything completes.
func TestServeRunUnboundedQueue(t *testing.T) {
	oc := ServeRun(serveCfg(5), serveSpec(20000, 3000, 0, 23), core.Fixed{K: 2}).ByClass[0]
	if oc.Dropped != 0 {
		t.Errorf("unbounded queue dropped %d jobs", oc.Dropped)
	}
	if oc.Completed != 3000 {
		t.Errorf("Completed = %d, want 3000", oc.Completed)
	}
}

// TestServeRunMTLInvariant checks the admission gate: concurrent memory
// tasks never exceed MTL per domain (peak over all domains is bounded
// by MTL * domains), both for a single stream and for a victim+flood
// mix under the class-aware blacklist.
func TestServeRunMTLInvariant(t *testing.T) {
	nd := serveCfg(7).Machine.Domains()
	for _, k := range []int{1, 2, 4} {
		mix := MixRun(serveCfg(7), MixSpec{
			Streams: []Stream{mixVictim(5000, 2000, 31), mixFlood(4000, 1000, 37)},
			Queue:   64,
		}, core.NewPolicyThrottler(core.NewBlacklist(core.Fixed{K: k}, core.BlacklistOptions{}), 32, k))
		if mix.PeakActiveMem > k*nd {
			t.Errorf("MTL=%d mix: PeakActiveMem = %d exceeds %d*%d domains", k, mix.PeakActiveMem, k, nd)
		}
		res := ServeRun(serveCfg(7), serveSpec(8000, 3000, 0, 31), core.Fixed{K: k})
		if res.PeakActiveMem > k*nd {
			t.Errorf("MTL=%d: PeakActiveMem = %d exceeds %d*%d domains", k, res.PeakActiveMem, k, nd)
		}
		// At saturation the gate should actually bind (reach its limit)
		// rather than idle below it.
		if res.PeakActiveMem < k {
			t.Errorf("MTL=%d: PeakActiveMem = %d never reached the limit", k, res.PeakActiveMem)
		}
	}
}

// TestServeRunLatencyRises checks open-loop queueing behaviour: pushing
// offered load past capacity must raise queue latency sharply.
func TestServeRunLatencyRises(t *testing.T) {
	low := ServeRun(serveCfg(9), serveSpec(500, 2000, 0, 41), core.Fixed{K: 2}).ByClass[0]
	high := ServeRun(serveCfg(9), serveSpec(50000, 2000, 0, 41), core.Fixed{K: 2}).ByClass[0]
	if low.Queue.P99() >= high.Queue.P99() {
		t.Errorf("p99 queue latency did not rise with load: %v at low vs %v at high",
			low.Queue.P99(), high.Queue.P99())
	}
}

// TestServeRunDynamic runs the adaptive policy end to end: decisions
// must be recorded and the run must complete.
func TestServeRunDynamic(t *testing.T) {
	cfg := serveCfg(11)
	th := core.NewDynamic(core.NewModel(cfg.Machine.HardwareThreads()), 32)
	res := ServeRun(cfg, serveSpec(4000, 5000, 128, 47), th)
	if oc := res.ByClass[0]; oc.Completed+oc.Dropped != oc.Arrived {
		t.Fatalf("conservation violated under D-MTL: %+v", res)
	}
	if len(res.MTLDecisions) == 0 {
		t.Error("D-MTL recorded no decisions over 5000 jobs")
	}
	if res.FinalMTL < 1 || res.FinalMTL > cfg.Machine.HardwareThreads() {
		t.Errorf("FinalMTL = %d outside [1, %d]", res.FinalMTL, cfg.Machine.HardwareThreads())
	}
}

// TestServeRunBursty smoke-tests MMPP arrivals through the server and
// confirms burstiness shows up as a heavier queue tail than Poisson at
// the same mean rate.
func TestServeRunBursty(t *testing.T) {
	mk := func(a workload.Arrivals) ClassOutcome {
		return ServeRun(serveCfg(13), ServeSpec{
			Arrivals: a,
			Jobs:     4000,
			Gather:   256 << 10,
			Compute:  2e-4,
		}, core.Fixed{K: 2}).ByClass[0]
	}
	p := mk(workload.NewPoisson(3000, 53))
	b := mk(workload.NewBursty(3000, 12, 0.02, 53))
	if p.Completed != 4000 || b.Completed != 4000 {
		t.Fatalf("incomplete runs: poisson %d, bursty %d", p.Completed, b.Completed)
	}
	if b.Queue.P999() <= p.Queue.P999() {
		t.Errorf("bursty p999 queue latency %v not above poisson %v", b.Queue.P999(), p.Queue.P999())
	}
}

// TestServeSpecValidation pins the spec panics.
func TestServeSpecValidation(t *testing.T) {
	good := serveSpec(100, 10, 0, 1)
	for name, mut := range map[string]func(*ServeSpec){
		"nil-arrivals": func(s *ServeSpec) { s.Arrivals = nil },
		"zero-jobs":    func(s *ServeSpec) { s.Jobs = 0 },
		"zero-gather":  func(s *ServeSpec) { s.Gather = 0 },
		"zero-compute": func(s *ServeSpec) { s.Compute = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			s := good
			mut(&s)
			defer func() {
				if recover() == nil {
					t.Error("want panic on invalid spec")
				}
			}()
			ServeRun(serveCfg(1), s, core.Fixed{K: 1})
		})
	}
}
