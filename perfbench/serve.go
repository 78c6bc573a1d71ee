package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"memthrottle/host"
	"memthrottle/internal/stats"
	"memthrottle/internal/workload"
)

// The host-serve workload is open-loop serving: one goroutine submits
// jobs at seeded Poisson arrival times, whether or not earlier jobs
// have finished, to a Runtime.Serve session under the paper's dynamic
// controller. Jobs are memory-bound pairs on 1 MiB arrays, so dispatch
// is a small share of each job's time. The rates are fixed and
// absolute: light is about 0.3x and heavy about 0.7x the capacity of
// a 2-CPU Intel Xeon box (about 6.5k jobs/s under D-MTL).
//
// Only light is timed. At heavy, on that box, the controller flips the
// MTL between 1 and 2 hundreds of times a run, MTL 1 cannot carry the
// offered rate, and the submitting goroutine waits up to 20 ms for a
// processor, so over five seeds the median latency ranged 0.85-1.59 ms
// and the 99th percentile 10-28 ms. The traced run reports heavy as
// serve.*_heavy figures instead.

const (
	lightRate   = 2000.0
	heavyRate   = 4500.0
	serveArrays = 64
	serveBytes  = 1 << 20
	serveQueue  = 1024
	serveWords  = serveBytes / 8
)

// serveConfig sets Policy explicitly: the zero value is Conventional.
// Workers is left at its default, GOMAXPROCS.
var serveConfig = host.Config{Policy: host.Dynamic, W: 8}

// jobRec is one job's record. The generator writes due and rejected
// before Submit; the job's callbacks write the rest on one worker, and
// the generator reads them after Drain.
type jobRec struct {
	due      int64 // ns after the session clock's start
	rejected bool
	buf      []int64
	sum      int64
	done     atomic.Int32 // Compute completions
	memStart int64        // callback times, ns; kept when traced
	memEnd   int64
	compEnd  int64
	submitAt int64 // Submit call, ns; traced only
	submitNs int64
}

// session is one live serving session with its arrays and job records.
type session struct {
	rt     *host.Runtime
	srv    *host.Server
	pool   chan []int64 // the arrays not in use by a job; one slot each
	recs   []jobRec
	start  time.Time // session clock
	traced bool
}

// expectedSum is the checksum job seq's Compute must produce after its
// Memory wrote word k as k+seq.
func expectedSum(seq int) int64 {
	n := int64(serveWords)
	return n*(n-1)/2 + n*int64(seq)
}

// pair builds job seq's callbacks. Memory takes a free array from the
// pool and streams the job's values into it; Compute sums them, hands
// the array back and marks the job done.
func (s *session) pair(seq int) host.Pair {
	r := &s.recs[seq]
	return host.Pair{
		Memory: func() {
			if s.traced {
				r.memStart = s.now()
			}
			buf := <-s.pool
			for k := range buf {
				buf[k] = int64(k) + int64(seq)
			}
			r.buf = buf
			if s.traced {
				r.memEnd = s.now()
			}
		},
		Compute: func() {
			var acc int64
			for _, v := range r.buf {
				acc += v
			}
			s.pool <- r.buf
			r.buf = nil
			r.sum = acc
			r.compEnd = s.now()
			r.done.Add(1)
		},
	}
}

func (s *session) now() int64 { return int64(time.Since(s.start)) }

// openSession builds the runtime and the arrays, opens the serving
// session and pushes one warm-up job through every array, which faults
// the arrays in and spawns the workers. The records have room for
// extra measured jobs after the warm-up ones.
func openSession(extra int, traced bool, tr *tracer, parent int) (*session, error) {
	sp := tr.begin("host.New", parent)
	rt, err := host.New(serveConfig)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s := &session{
		rt:     rt,
		pool:   make(chan []int64, serveArrays),
		recs:   make([]jobRec, serveArrays+extra),
		traced: traced,
	}
	for i := 0; i < serveArrays; i++ {
		s.pool <- make([]int64, serveWords)
	}
	sp = tr.begin("host.Runtime.Serve", parent)
	s.srv, err = rt.Serve(host.ServeConfig{Queue: serveQueue, Shed: host.ShedReject})
	tr.end(sp)
	if err != nil {
		rt.Close()
		return nil, err
	}
	s.start = time.Now()
	sp = tr.begin("warm-up", parent)
	for i := 0; i < serveArrays; i++ {
		if err := s.srv.Submit(s.pair(i)); err != nil {
			s.recs[i].rejected = true
		}
	}
	for i := 0; i < serveArrays; i++ {
		for s.recs[i].done.Load() == 0 && !s.recs[i].rejected {
			time.Sleep(50 * time.Microsecond)
		}
	}
	tr.end(sp)
	return s, nil
}

// close drains the session, closes the runtime and checks every job.
func (s *session) close(tr *tracer, parent int) (host.ServeStats, time.Duration, int, error) {
	sp := tr.begin("host.Server.Drain", parent)
	t := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := s.srv.Drain(ctx)
	d := time.Since(t)
	tr.end(sp)
	s.rt.Close()
	if err != nil {
		return st, d, 0, fmt.Errorf("drain: %w", err)
	}
	return st, d, checkJobs(s.recs, st), nil
}

// checkJobs counts failed checks over a drained session: each accepted
// job completed exactly once with its checksum, no rejected job ran,
// and the session's counters balance with the jobs offered.
func checkJobs(recs []jobRec, st host.ServeStats) int {
	failed := 0
	var accepted int64
	for i := range recs {
		r := &recs[i]
		done := r.done.Load()
		switch {
		case r.rejected && done != 0:
			failed++
		case !r.rejected:
			accepted++
			if done != 1 || r.sum != expectedSum(i) {
				failed++
			}
		}
	}
	offered := int64(len(recs))
	if offered != st.Submitted+st.Rejected+st.Blacklisted {
		failed++
	}
	if st.Submitted != st.Completed+st.Failed+st.Dropped {
		failed++
	}
	if st.Submitted != accepted {
		failed++
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %d failed checks (offered %d, submitted %d, completed %d, rejected %d)\n",
			failed, offered, st.Submitted, st.Completed, st.Rejected)
	}
	return failed
}

// arrivals returns the due times, as offsets from the start, of every
// arrival of a seeded Poisson stream within the given seconds.
func arrivals(rate float64, seed int64, seconds float64) []time.Duration {
	src := workload.NewPoisson(rate, seed)
	var out []time.Duration
	for at := src.Next(); at < seconds; at += src.Next() {
		out = append(out, time.Duration(at*float64(time.Second)))
	}
	return out
}

// hostServePass times serving at the light rate. When traced, it also
// serves the heavy rate, untraced, for as long again, and reports the
// light rate's 99th percentile, which is too unsteady on a 2-CPU box
// to carry a bound.
func hostServePass(seed int64, seconds float64, tr *tracer) (pass, error) {
	p, err := servePass(lightRate, seed, seconds, tr)
	if err != nil || tr == nil {
		return p, err
	}
	h, err := servePass(heavyRate, seed, seconds, nil)
	if err != nil {
		return pass{}, err
	}
	p.attempted += h.attempted
	p.failed += h.failed
	p.layer["serve.p50_ms_heavy"] = h.e2e["op_ms_p50"]
	p.layer["serve.p99_ms_heavy"] = h.p99
	p.layer["serve.goodput_per_s_heavy"] = h.e2e["work_per_s"]
	p.layer["serve.rejected_heavy"] = float64(h.rejected)
	return p, nil
}

// serveTotals accumulates the measurements of a pass's sessions.
type serveTotals struct {
	pass
	setups, late, submit, drains []float64
	win                          windows // job latencies, ms
	offered, completed           int
	measured, tm, tc             time.Duration
	queue, service               stats.LatencyHist
	admitted, batches            int64
	finalMTL, mtlChanges, peak   int
}

// servePass serves one seeded Poisson stream at the given rate for the
// given seconds, split evenly over fresh sessions, and measures it.
func servePass(rate float64, seed int64, seconds float64, tr *tracer) (pass, error) {
	root := tr.begin(fmt.Sprintf("serve %g/s", rate), -1)
	defer tr.end(root)
	due := arrivals(rate, seed, seconds)
	seg := time.Duration(seconds / sessions * float64(time.Second))
	var t serveTotals
	for k, lo := 0, 0; k < sessions; k++ {
		base := time.Duration(k) * seg
		hi := lo
		for hi < len(due) && due[hi] < base+seg {
			hi++
		}
		part := make([]time.Duration, hi-lo)
		for i := range part {
			part[i] = due[lo+i] - base
		}
		lo = hi
		if err := t.session(part, base, seconds, tr, root); err != nil {
			return pass{}, err
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	if t.offered == 0 {
		return pass{}, fmt.Errorf("no arrivals in %gs at %g/s", seconds, rate)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return pass{}, err
	}
	p := t.pass
	var p50 float64
	p50, p.p99, _ = t.win.medians()
	p.e2e = map[string]float64{
		"setup_s":     median(t.setups),
		"peak_rss_mb": rss,
		"op_ms_p50":   p50,
		"work_per_s":  float64(t.completed) / t.measured.Seconds(),
	}
	if tr == nil {
		return p, nil
	}
	tr.count("serve.offered", int64(t.offered))
	tr.count("serve.completed", int64(t.completed))
	tr.count("serve.rejected", p.rejected)
	n := float64(max(t.completed, 1))
	p.layer = zeroLayer()
	for k, v := range map[string]float64{
		"serve.p99_ms_light":   p.p99,
		"serve.submit_us_p50":  quantile(t.submit, 0.50),
		"serve.submit_us_p99":  quantile(t.submit, 0.99),
		"serve.late_ms_p50":    quantile(t.late, 0.50),
		"serve.late_ms_p99":    quantile(t.late, 0.99),
		"serve.queue_ms_p50":   ms(t.queue.P50()),
		"serve.queue_ms_p99":   ms(t.queue.P99()),
		"serve.admit_batch":    float64(t.admitted) / float64(max(t.batches, 1)),
		"serve.drain_ms":       median(t.drains),
		"serve.service_ms_p50": ms(t.service.P50()),
		"serve.service_ms_p99": ms(t.service.P99()),
		"serve.tm_us":          us(t.tm) / n,
		"serve.tc_us":          us(t.tc) / n,
		"serve.final_mtl":      float64(t.finalMTL),
		"serve.mtl_changes":    float64(t.mtlChanges),
		"serve.peak_mem_tasks": float64(t.peak),
	} {
		p.layer[k] = v
	}
	return p, nil
}

// session sets up a fresh session, replays the due times (offsets
// from the session's start) against it, drains it and records what
// it measured. base places the session's jobs on the pass's clock for
// windowing; a rejected job counts as late as the whole pass.
func (t *serveTotals) session(due []time.Duration, base time.Duration, seconds float64, tr *tracer, root int) error {
	sp := tr.begin("setup", root)
	t0 := time.Now()
	s, err := openSession(len(due), tr != nil, tr, sp)
	t.setups = append(t.setups, time.Since(t0).Seconds())
	tr.end(sp)
	if err != nil {
		return err
	}
	// The measured jobs follow the warm-up ones in s.recs; the session
	// clock restarts so that due times count from the first arrival.
	jobs := s.recs[serveArrays:]
	pairs := make([]host.Pair, len(jobs))
	for i := range pairs {
		pairs[i] = s.pair(serveArrays + i)
	}
	mtl := s.rt.MTL()
	measure := tr.begin("measure", root)
	s.start = time.Now()
	for i := range jobs {
		r := &jobs[i]
		r.due = int64(due[i])
		if d := due[i] - time.Since(s.start); d > 0 {
			time.Sleep(d)
		}
		if tr == nil {
			r.rejected = s.srv.Submit(pairs[i]) != nil
			continue
		}
		r.submitAt = s.now()
		err := s.srv.Submit(pairs[i])
		r.submitNs = s.now() - r.submitAt
		r.rejected = err != nil
		t.late = append(t.late, float64(r.submitAt-r.due)/1e6)
		t.submit = append(t.submit, float64(r.submitNs)/1e3)
		if m := s.rt.MTL(); m != mtl {
			mtl, t.mtlChanges = m, t.mtlChanges+1
		}
	}
	st, drain, failed, err := s.close(tr, measure)
	end := s.now()
	tr.end(measure)
	if err != nil {
		return err
	}
	t.attempted += len(s.recs)
	t.failed += failed
	t.rejected += st.Rejected
	t.measured += time.Duration(end)

	// Latency runs from the due time to the end of Compute.
	t.offered += len(jobs)
	for i := range jobs {
		r := &jobs[i]
		lat := seconds * 1000
		if !r.rejected && r.done.Load() == 1 {
			t.completed++
			lat = float64(r.compEnd-r.due) / 1e6
		}
		t.win.add(base+time.Duration(r.due), lat, 0, 0)
	}
	if tr == nil {
		return nil
	}

	// Callback spans were kept in the job records; each hangs under the
	// job's Submit span.
	offset := int64(s.start.Sub(tr.t0))
	for i := range jobs {
		r := &jobs[i]
		sub := tr.add(span{Name: "host.Server.Submit", Start: offset + r.submitAt, End: offset + r.submitAt + r.submitNs, Parent: measure})
		if r.rejected {
			continue
		}
		tr.add(span{Name: "Pair.Memory", Start: offset + r.memStart, End: offset + r.memEnd, Parent: sub})
		tr.add(span{Name: "Pair.Compute", Start: offset + r.memEnd, End: offset + r.compEnd, Parent: sub})
		t.tm += time.Duration(r.memEnd - r.memStart)
		t.tc += time.Duration(r.compEnd - r.memEnd)
	}
	t.drains = append(t.drains, ms(drain))
	t.queue.Merge(&st.QueueLatency)
	t.service.Merge(&st.ServiceLatency)
	t.admitted += st.AdmittedJobs
	t.batches += st.AdmitBatches
	t.finalMTL = st.FinalMTL
	t.peak = max(t.peak, st.MaxConcurrentM)
	return nil
}
