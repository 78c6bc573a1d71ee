package experiments

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/parallel"
	"memthrottle/internal/sim"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stats"
	"memthrottle/internal/workload"
)

// The S1 experiment moves the evaluation from the paper's closed-loop
// makespan question ("how fast does a fixed batch finish?") to the
// serving question the host runtime now answers: jobs arrive by an
// open-loop Poisson process, wait in a bounded queue, and are admitted
// under the policy's MTL. Per offered-load point it reports goodput,
// drop rate and end-to-end latency percentiles for the conventional
// schedule (MTL = n), the best static MTL, and D-MTL — showing where
// throttling converts into serving capacity and tail latency, not just
// batch makespan.
//
// Everything runs on the deterministic virtual-time simulator
// (simsched.MixRun, as a single class-0 stream): seeded arrivals,
// seeded noise, and deterministically merged histograms make the table
// byte-identical across runs and across -j fan-outs. The wall-clock host serving path
// is exercised by the host benchmarks instead, where real time is the
// point; EXPERIMENTS.md records the split.

// serveReps is the seeded repetition count per (policy, load) cell;
// histograms merge across reps, so percentiles draw on
// serveReps*serveJobs samples.
const (
	serveReps    = 3
	serveJobs    = 4000
	serveQueue   = 64 // bounded pending queue; overflow is shed
	serveRatio   = 1.1
	serveFootpr  = 512 << 10
	serveLoadFmt = "%.2f"
)

// serveLoads is the offered-load grid, as fractions of the measured
// conventional capacity: two underloaded points, near-saturation, and
// two overloaded points where shedding and tails separate the
// policies.
var serveLoads = []float64{0.5, 0.8, 0.95, 1.1, 1.3}

// ServeCell is one (policy, offered load) measurement.
type ServeCell struct {
	Policy   string
	Load     float64 // offered / conventional capacity
	Offered  float64 // offered arrival rate, jobs/s
	Goodput  float64 // completed jobs/s, mean across reps
	DropRate float64 // dropped / arrived, pooled across reps
	Sojourn  stats.LatencyHist
	FinalMTL int // first rep's final MTL
}

// serveWorkload derives the per-job gather footprint and solo compute
// time from the same synthetic generator the Fig. 13 sweeps use, at a
// memory-bound ratio where throttling has capacity to recover.
func serveWorkload(e Env) (gather float64, compute float64) {
	pair := e.Lib().Synthetic(serveRatio, serveFootpr, 1).Phases[0].Pairs[0]
	return pair.Gather.Bytes, float64(pair.Compute.Work)
}

// serveCapacity measures the saturated goodput of a fixed MTL: arrivals
// far above any sustainable rate, unbounded queue, so completed jobs
// per second of makespan is the service capacity of that limit.
func serveCapacity(e Env, k int) float64 {
	cfg := e.Cfg()
	cfg.Seed = 1
	gather, compute := serveWorkload(e)
	sat := 50 * float64(cfg.Machine.HardwareThreads()) / (gather*1e-9 + compute)
	res := simsched.ServeRun(cfg, simsched.ServeSpec{
		Arrivals: workload.NewPoisson(sat, 1),
		Jobs:     serveJobs,
		Gather:   gather,
		Compute:  sim.Time(compute),
	}, core.Fixed{K: k})
	return res.Goodput
}

// ServeSweep measures the serving grid: for each policy and each
// offered-load fraction of the conventional capacity, serveReps seeded
// open-loop runs with a bounded queue. Cells are independent and
// assembled in grid order, so the result is identical for any worker
// budget.
func ServeSweep(e Env) ([]ServeCell, float64, int, error) {
	cfg := e.Cfg()
	n := cfg.Machine.HardwareThreads()
	gather, compute := serveWorkload(e)

	// Capacity calibration: saturated goodput per fixed MTL. MTL = n is
	// the conventional capacity that anchors the load grid; the argmax
	// is the best static limit the sweep serves under.
	caps := parallel.Map(e.jobs(), n, func(i int) float64 {
		return serveCapacity(e, i+1)
	})
	convCap := caps[n-1]
	bestK := 1
	for k := 2; k <= n; k++ {
		if caps[k-1] > caps[bestK-1] {
			bestK = k
		}
	}
	if convCap <= 0 {
		return nil, 0, 0, fmt.Errorf("experiments: serve capacity calibration collapsed (%v)", caps)
	}

	type policy struct {
		name string
		mk   func() core.Throttler
	}
	policies := []policy{
		{"conventional", func() core.Throttler { return core.Fixed{K: n} }},
		{fmt.Sprintf("static MTL=%d", bestK), func() core.Throttler { return core.Fixed{K: bestK} }},
		{"D-MTL", func() core.Throttler { return core.NewDynamic(core.NewModel(n), e.W) }},
	}

	type cellKey struct {
		pol  int
		load int
	}
	var grid []cellKey
	for p := range policies {
		for l := range serveLoads {
			grid = append(grid, cellKey{p, l})
		}
	}
	cells := parallel.Map(e.jobs(), len(grid), func(i int) ServeCell {
		key := grid[i]
		rate := serveLoads[key.load] * convCap
		c := ServeCell{
			Policy:  policies[key.pol].name,
			Load:    serveLoads[key.load],
			Offered: rate,
		}
		var goodput float64
		var arrived, dropped int
		for rep := 0; rep < serveReps; rep++ {
			rcfg := cfg
			rcfg.Seed = int64(1000*i + rep + 1)
			res := simsched.ServeRun(rcfg, simsched.ServeSpec{
				Arrivals: workload.NewPoisson(rate, int64(7000*i+rep+1)),
				Jobs:     serveJobs,
				Gather:   gather,
				Compute:  sim.Time(compute),
				Queue:    serveQueue,
			}, policies[key.pol].mk())
			oc := &res.ByClass[0]
			goodput += res.Goodput
			arrived += oc.Arrived
			dropped += oc.Dropped
			c.Sojourn.Merge(&oc.Sojourn)
			if rep == 0 {
				c.FinalMTL = res.FinalMTL
			}
		}
		c.Goodput = goodput / serveReps
		c.DropRate = float64(dropped) / float64(arrived)
		return c
	})
	return cells, convCap, bestK, nil
}

// ServeS1 renders the goodput-vs-load serving table.
func ServeS1(e Env) (Table, error) {
	cells, convCap, bestK, err := ServeSweep(e)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID: "S1",
		Title: "Open-loop serving: goodput, drop rate and latency percentiles vs offered load " +
			"(Poisson arrivals, bounded queue)",
		Columns: []string{"policy", "load", "offered/s", "goodput/s", "drop",
			"p50 (ms)", "p99 (ms)", "p999 (ms)", "final MTL"},
	}
	ms := func(d float64) string { return f3(d / 1e6) } // ns -> ms
	for _, c := range cells {
		t.AddRow(c.Policy, fmt.Sprintf(serveLoadFmt, c.Load), f2(c.Offered), f2(c.Goodput),
			pct(c.DropRate),
			ms(float64(c.Sojourn.P50())), ms(float64(c.Sojourn.P99())), ms(float64(c.Sojourn.P999())),
			fmt.Sprintf("%d", c.FinalMTL))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("conventional capacity %.2f jobs/s (saturated MTL=n goodput); best static MTL %d", convCap, bestK),
		fmt.Sprintf("synthetic pairs at Tm1/Tc=%.2f, %d KiB footprint; queue bound %d, overflow shed",
			serveRatio, serveFootpr>>10, serveQueue),
		fmt.Sprintf("%d reps x %d jobs per cell, seeded arrivals and noise; histograms merged across reps", serveReps, serveJobs),
		"latencies are end-to-end sojourn (arrival to completion) on the virtual-time simulator")
	return t, nil
}
