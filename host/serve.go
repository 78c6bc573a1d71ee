package host

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"memthrottle/internal/stats"
)

// This file is the streaming face of the dispatch core (engine.go):
// Serve opens a session with an open ingress, Submit enqueues one pair
// without blocking on dispatch work, and Drain stops intake and waits
// for the tail. The MTL gate doubles as the server's admission
// controller — a job leaves the pending queue only when its home
// domain's gate grants a memory slot — so the paper's invariant (never
// more than MTL memory tasks in flight per domain) holds for streamed
// work exactly as it does for Run phases.
//
// The Submit-to-completion path is allocation-free: jobs live in a
// preallocated block pool and move between lock-free MPMC rings
// (ring.go). Per-job latencies are recorded into per-worker histogram
// shards (internal/stats.LatencyHist, zero-alloc) and merged after the
// workers exit, so Drain's percentiles are race-free without any
// hot-path locking.

// Shed selects what Submit does when the serving queue cannot take the
// job (pending ring full, or the block pool exhausted).
type Shed int

const (
	// ShedReject makes Submit return ErrQueueFull; the caller owns the
	// retry policy. The default.
	ShedReject Shed = iota
	// ShedDrop makes Submit accept and discard the job, counted in
	// ServeStats.Dropped — the open-loop load-shedding posture.
	ShedDrop
	// ShedBlock makes Submit wait for space, turning the open loop into
	// a closed one under overload. Blocked submitters are released with
	// ErrDraining when the server drains.
	ShedBlock
)

// String names the shedding mode.
func (s Shed) String() string {
	switch s {
	case ShedReject:
		return "reject"
	case ShedDrop:
		return "drop"
	case ShedBlock:
		return "block"
	default:
		return fmt.Sprintf("Shed(%d)", int(s))
	}
}

var (
	// ErrQueueFull is returned by Submit under ShedReject when the
	// pending queue (or the job-block pool) is exhausted.
	ErrQueueFull = errors.New("host: serving queue full")
	// ErrDraining is returned by Submit once Drain has begun.
	ErrDraining = errors.New("host: server draining")
	// ErrBlacklisted is returned by Submit when the pair's traffic class
	// is currently demoted by a class-aware controller: the job is shed
	// at ingress, regardless of the shedding mode, until the blacklist
	// releases the class.
	ErrBlacklisted = errors.New("host: traffic class blacklisted")
)

// ServeConfig tunes one Serve session.
type ServeConfig struct {
	// Queue bounds each domain's pending queue (rounded up to a power
	// of two). Default: 1024.
	Queue int
	// Shed selects the overflow behaviour. Default: ShedReject.
	Shed Shed
	// AdmitBatch caps how many queued jobs one gate transition admits
	// (one CAS, one batched wakeup). 1 degenerates to per-job
	// admission — the configuration the BenchmarkHostServePerJob
	// baselines pin. Default: 32.
	AdmitBatch int
}

// withDefaults fills zero fields.
func (c ServeConfig) withDefaults() ServeConfig {
	if c.Queue == 0 {
		c.Queue = 1024
	}
	if c.AdmitBatch == 0 {
		c.AdmitBatch = 32
	}
	return c
}

// validate reports a configuration error.
func (c ServeConfig) validate() error {
	if c.Queue < 1 {
		return fmt.Errorf("host: ServeConfig.Queue = %d, want >= 1", c.Queue)
	}
	if c.AdmitBatch < 1 {
		return fmt.Errorf("host: ServeConfig.AdmitBatch = %d, want >= 1", c.AdmitBatch)
	}
	switch c.Shed {
	case ShedReject, ShedDrop, ShedBlock:
	default:
		return fmt.Errorf("host: unknown shedding mode %v", c.Shed)
	}
	return nil
}

// ServeStats summarises one Serve session at Drain.
type ServeStats struct {
	Submitted int64 // jobs accepted into the pending queue
	Completed int64 // jobs whose final task finished successfully
	Failed    int64 // jobs abandoned after exhausting retries
	Dropped   int64 // jobs discarded by ShedDrop
	Rejected  int64 // Submit calls refused by ShedReject
	Retries   int64 // task re-executions performed
	Recovered int64 // tasks that succeeded after at least one retry

	// AdmitBatches counts gate transitions; AdmittedJobs the jobs they
	// admitted. Their ratio is the realised admission batch size — the
	// amortisation batched admission buys over per-job admission.
	AdmitBatches int64
	AdmittedJobs int64

	// Blacklisted counts Submit calls refused because the pair's class
	// was demoted at the time — the ingress half of containment.
	Blacklisted int64

	// Stalls counts tasks flagged by the stall watchdog; Stalled holds
	// the seq of each flagged job in detection order. Degraded reports
	// whether the Dynamic controller fell back to the conventional
	// schedule during the session, and Rearms how many times the
	// watchdog lifted the fallback after the stall storm passed
	// (Config.StallRecoverAfter).
	Stalls   int64
	Stalled  []int64
	Degraded bool
	Rearms   int64

	Elapsed        time.Duration
	Goodput        float64 // completed jobs per second of Elapsed
	FinalMTL       int
	MaxConcurrentM int // peak concurrent memory tasks, all domains

	// QueueLatency spans Submit to gate admission; ServiceLatency spans
	// admission to completion. Both are merged from per-worker shards
	// after the workers exit, so a drained server's percentiles are
	// exact over all completed jobs.
	QueueLatency   stats.LatencyHist
	ServiceLatency stats.LatencyHist
}

// Serve opens a serving session on the runtime. The session owns the
// runtime until Drain completes: Run calls fail while serving, and a
// runtime hosts one session at a time. The controller is the runtime's
// own (it persists across sessions exactly as it persists across Run
// calls).
func (r *Runtime) Serve(sc ServeConfig) (*Server, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if r.closed.Load() {
		return nil, errors.New("host: runtime closed")
	}
	if !r.busy.CompareAndSwap(false, true) {
		return nil, errors.New("host: runtime already serving")
	}
	a := r.borrow()
	a.sizeIngress(sc.Queue)
	return r.open(a, sc, false), nil
}

// Submit enqueues one pair for execution. It never blocks on dispatch
// work — the slow paths are the configured shedding mode (ShedBlock
// waits for space) and validation. The pair's home domain is
// Config.Domain of its submission sequence number (0, 1, 2, ... in
// Submit order), or that number modulo Domains. Safe for any number of
// concurrent callers.
func (s *Server) Submit(p Pair) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if err := p.check(); err != nil {
		return fmt.Errorf("host: submit: %w", err)
	}
	// Ingress containment: a demoted class is refused before it costs a
	// block or a queue slot, whatever the shedding mode — exactly the
	// arrival-shedding half of blacklist demotion in the simulator.
	if s.rt.lim != nil && s.rt.lim.Blacklisted(p.Class) {
		s.blacklisted.Add(1)
		return ErrBlacklisted
	}

	// inflight rises before the draining re-check: Drain observes
	// either a zero count (this submit backs out) or our token (the
	// drain waits for this job). No job is ever stranded behind a
	// closed drain.
	s.inflight.Add(1)
	if s.draining.Load() {
		s.undoInflight()
		return ErrDraining
	}
	seq := s.seq.Add(1) - 1
	dom, err := s.rt.home(int(seq))
	if err != nil {
		s.undoInflight()
		return err
	}
	if s.enqueue(seq, dom, &p) {
		s.submitted.Add(1)
		s.pump(dom, false)
		return nil
	}
	switch s.sc.Shed {
	case ShedDrop:
		s.undoInflight()
		s.dropped.Add(1)
		return nil
	case ShedBlock:
		return s.submitBlocking(seq, dom, &p)
	default: // ShedReject
		s.undoInflight()
		s.rejected.Add(1)
		return ErrQueueFull
	}
}

// enqueue moves one validated pair into dom's pending ring, reporting
// false when the queue (or the block pool) is full.
func (s *Server) enqueue(seq int64, dom int, p *Pair) bool {
	j := s.free.pop()
	if j == nil {
		return false
	}
	j.fill(p, seq, dom)
	j.enqNs = s.nowNs()
	if s.doms[dom].pend.push(j) {
		return true
	}
	*j = servJob{}
	for !s.free.push(j) {
		runtime.Gosched()
	}
	return false
}

// submitBlocking is the ShedBlock slow path: wait until the job fits
// or the server drains.
func (s *Server) submitBlocking(seq int64, dom int, p *Pair) error {
	s.blockWaiters.Add(1)
	defer s.blockWaiters.Add(-1)
	s.blockMu.Lock()
	for {
		if s.draining.Load() {
			s.blockMu.Unlock()
			s.undoInflight()
			return ErrDraining
		}
		if s.enqueue(seq, dom, p) {
			s.blockMu.Unlock()
			s.submitted.Add(1)
			s.pump(dom, false)
			return nil
		}
		s.blockCond.Wait()
	}
}

// undoInflight retires an inflight token without a job behind it.
func (s *Server) undoInflight() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.closeDrained()
	}
}

// Drain stops intake (Submit returns ErrDraining; blocked submitters
// are released) and waits for every accepted job to finish. On success
// it returns the session's statistics with exact merged latency
// percentiles and releases the runtime for Run or a new Serve. If ctx
// expires first, Drain returns counter-only statistics plus ctx's
// error; the session keeps draining in the background and Drain may be
// called again to finish waiting.
func (s *Server) Drain(ctx context.Context) (ServeStats, error) {
	if s.draining.CompareAndSwap(false, true) {
		s.blockMu.Lock()
		s.blockCond.Broadcast()
		s.blockMu.Unlock()
		if s.inflight.Load() == 0 {
			s.closeDrained()
		}
	}
	select {
	case <-s.drained:
	case <-ctx.Done():
		return s.snapshotStats(), ctx.Err()
	}
	s.statsOnce.Do(func() {
		s.quiesce() // workers exited: histogram shards are quiescent
		s.final = new(latShard)
		for i := range s.workers[:s.spawned.Load()] {
			w := s.workers[i].Load()
			s.final.queue.Merge(&w.hist.queue)
			s.final.service.Merge(&w.hist.service)
		}
		s.close()
	})
	st := s.snapshotStats()
	st.QueueLatency = s.final.queue
	st.ServiceLatency = s.final.service
	return st, nil
}

// snapshotStats builds counter statistics (no histogram merge — safe
// while workers are still running).
func (s *Server) snapshotStats() ServeStats {
	st := ServeStats{
		Submitted:      s.submitted.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Dropped:        s.dropped.Load(),
		Rejected:       s.rejected.Load(),
		Retries:        s.retries.Load(),
		Recovered:      s.recovered.Load(),
		AdmitBatches:   s.admitBatches.Load(),
		AdmittedJobs:   s.admittedJobs.Load(),
		Blacklisted:    s.blacklisted.Load(),
		Elapsed:        time.Since(s.start),
		FinalMTL:       s.rt.MTL(),
		MaxConcurrentM: s.rt.peakConcurrentM(),
	}
	s.stallMu.Lock()
	st.Stalls = s.stalls
	st.Stalled = append([]int64(nil), s.stalledSeqs...)
	st.Degraded = s.degraded
	st.Rearms = s.rearms
	s.stallMu.Unlock()
	if sec := st.Elapsed.Seconds(); sec > 0 {
		st.Goodput = float64(st.Completed) / sec
	}
	return st
}
