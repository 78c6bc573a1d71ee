package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"memthrottle/host"
)

// The host-batch workload drives closed-loop Runtime.Run phases of tiny
// pairs, the configuration host/bench_test.go pins as
// HostRuntimeThroughput64. The task bodies are so small (2 KiB arrays,
// one compute pass) that dispatch — gate CAS, deques, steal-half across
// domains, overflow lists, park and spin — is nearly all the work.

const (
	batchPairs = 128
	batchBytes = 2 << 10
)

// batchConfig sets Policy explicitly: the zero value is Conventional.
var batchConfig = host.Config{Workers: 64, Domains: 2, Policy: host.Static, MTL: 2, W: 8}

// batchSetup builds the runtime and the arrays and runs one untimed
// warm-up phase, which spawns the workers and faults the arrays in.
func batchSetup(tr *tracer, parent int) (*host.Runtime, *host.ArraySet, error) {
	sp := tr.begin("host.New", parent)
	rt, err := host.New(batchConfig)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	a, err := host.NewArraySet(batchPairs, batchBytes)
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	pairs, err := a.Pairs(1)
	if err == nil {
		sp = tr.begin("host.Runtime.Run warm-up", parent)
		_, err = rt.Run(pairs)
		tr.end(sp)
	}
	if err == nil {
		err = a.Verify(1)
	}
	if err != nil {
		rt.Close()
		return nil, nil, fmt.Errorf("batch warm-up: %w", err)
	}
	return rt, a, nil
}

// checkPhase counts a finished phase as failed (1) or not (0): every
// pair must have completed, every compute task must have seen its
// fully gathered array, and no domain's gate may have admitted more
// memory tasks at once than the MTL.
//
// The all-domain Stats.MaxConcurrentM is not checked: the runtime
// raises its counter after a gate admits and lowers it after the gate
// releases, so a release and an admission that overlap can read one
// over MTL x domains while every gate holds its limit. overcount
// reports such a phase; the traced run counts them.
func checkPhase(a *host.ArraySet, st host.Stats) (failed int, overcount bool) {
	var problems []string
	if err := a.Verify(1); err != nil {
		problems = append(problems, err.Error())
	}
	if st.CompletedPairs != a.Len() {
		problems = append(problems, fmt.Sprintf("%d of %d pairs completed", st.CompletedPairs, a.Len()))
	}
	for d, ds := range st.Domains {
		if ds.PeakActive > batchConfig.MTL {
			problems = append(problems, fmt.Sprintf("domain %d ran %d memory tasks at once, MTL %d", d, ds.PeakActive, batchConfig.MTL))
		}
	}
	overcount = st.MaxConcurrentM > batchConfig.MTL*batchConfig.Domains
	if len(problems) == 0 {
		return 0, overcount
	}
	fmt.Fprintln(os.Stderr, "perfbench: batch phase failed:", problems)
	return 1, overcount
}

// callbackTime accumulates the time spent in one pair slot's callbacks.
// Pair i of a phase runs on one goroutine at a time and Run returns
// only after every pair finished, so each slot needs no lock.
type callbackTime struct {
	mem, comp time.Duration
	_         [48]byte // keep neighbouring slots off one cache line
}

// timed wraps the pairs' callbacks so their time lands in slots.
func timed(pairs []host.Pair, slots []callbackTime) {
	for i := range pairs {
		m, c, s := pairs[i].Memory, pairs[i].Compute, &slots[i]
		pairs[i].Memory = func() {
			t := time.Now()
			m()
			s.mem += time.Since(t)
		}
		pairs[i].Compute = func() {
			t := time.Now()
			c()
			s.comp += time.Since(t)
		}
	}
}

// batchPass runs Run phases for the given seconds, split evenly over
// fresh sessions, checks every phase and measures them. The seed is
// unused: every phase runs the same pairs.
func batchPass(_ int64, seconds float64, tr *tracer) (pass, error) {
	root := tr.begin("host-batch", -1)
	defer tr.end(root)
	var (
		p          pass
		setups     []float64
		win        windows // Run call durations, ms, and pairs per second of Run time
		runTotal   time.Duration
		agg        host.Stats
		doms       host.DomainStats
		tmSum      time.Duration
		tcSum      time.Duration
		slots      []callbackTime
		overcounts int
	)
	if tr != nil {
		slots = make([]callbackTime, batchPairs)
	}
	seg := time.Duration(seconds / sessions * float64(time.Second))
	for k := 0; k < sessions; k++ {
		sp := tr.begin("setup", root)
		t := time.Now()
		rt, a, err := batchSetup(tr, sp)
		setups = append(setups, time.Since(t).Seconds())
		tr.end(sp)
		if err != nil {
			return pass{}, err
		}
		measure := tr.begin("measure", root)
		base := time.Duration(k) * seg
		start := time.Now()
		for time.Since(start) < seg {
			pairs, err := a.Pairs(1)
			if err != nil {
				rt.Close()
				return pass{}, err
			}
			if tr != nil {
				timed(pairs, slots)
			}
			sp := tr.begin("host.Runtime.Run", measure)
			t := time.Now()
			st, err := rt.Run(pairs)
			d := time.Since(t)
			tr.end(sp)
			if err != nil {
				rt.Close()
				return pass{}, err
			}
			win.add(base+t.Sub(start), ms(d), float64(st.CompletedPairs), d.Seconds())
			runTotal += d
			p.attempted++
			failed, over := checkPhase(a, st)
			p.failed += failed
			if over {
				overcounts++
			}
			agg.CompletedPairs += st.CompletedPairs
			agg.MaxConcurrentM = max(agg.MaxConcurrentM, st.MaxConcurrentM)
			tmSum += st.MeanTm * time.Duration(st.CompletedPairs)
			tcSum += st.MeanTc * time.Duration(st.CompletedPairs)
			for _, ds := range st.Domains {
				doms.Steals += ds.Steals
				doms.RemoteSteals += ds.RemoteSteals
				doms.Spills += ds.Spills
				doms.Parks += ds.Parks
				doms.Idle += ds.Idle
			}
		}
		tr.end(measure)
		rt.Close()
		runtime.GC()
		debug.FreeOSMemory()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return pass{}, err
	}
	completed := float64(agg.CompletedPairs)
	p50, p99, rate := win.medians()
	p.p99 = p99
	p.e2e = map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": rss,
		"op_ms_p50":   p50,
		"work_per_s":  rate,
	}
	if tr == nil {
		return p, nil
	}
	var busy time.Duration
	for _, s := range slots {
		busy += s.mem + s.comp
	}
	wall := runTotal.Seconds()
	p.layer = zeroLayer()
	for k, v := range map[string]float64{
		"batch.run_us_p50":             1000 * p.e2e["op_ms_p50"],
		"batch.run_us_p99":             1000 * p.p99,
		"batch.busy_share":             busy.Seconds() / (wall * float64(runtime.GOMAXPROCS(0))),
		"batch.steals_per_pair":        float64(doms.Steals) / completed,
		"batch.remote_steals_per_pair": float64(doms.RemoteSteals) / completed,
		"batch.spills_per_pair":        float64(doms.Spills) / completed,
		"batch.parks_per_pair":         float64(doms.Parks) / completed,
		"batch.idle_share":             doms.Idle.Seconds() / (wall * float64(batchConfig.Workers)),
		"batch.peak_mem_tasks":         float64(agg.MaxConcurrentM),
		"batch.peak_overcounts":        float64(overcounts),
		"batch.tm_us":                  us(tmSum) / completed,
		"batch.tc_us":                  us(tcSum) / completed,
	} {
		p.layer[k] = v
	}
	tr.count("batch.phases", int64(p.attempted))
	tr.count("batch.pairs", int64(agg.CompletedPairs))
	return p, nil
}
