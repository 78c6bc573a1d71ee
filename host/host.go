// Package host is the real-machine implementation of the paper's
// run-time memory thread throttling (§V): a pool of worker goroutines
// executes user-supplied memory/compute task pairs from a work queue,
// an admission gate and a counter enforce the Memory Task Limit, and
// the same controllers that drive the simulator (internal/core)
// retarget the MTL from live task timings.
//
// One dispatch core (engine.go) serves both entry points. Serve opens
// a streaming session; Run is a closed-loop session of the same core
// that installs a whole phase of pairs at once and waits for it. Jobs
// queue per memory domain in submission order; an admission pump
// claims slots on the domain's MTL gate — one CAS on an atomic counter
// (gate.go) for a whole batch of jobs — moves the admitted jobs to the
// domain's ring and wakes exactly as many parked workers, and one
// worker carries each job from gather through compute. Every slot
// release pumps again, so admission needs no dedicated goroutine.
//
// The machine can further be sharded into independent memory domains
// (Config.Domains), the host analogue of the paper's 2-DIMM platform
// (§V) where each DIMM's channel contends independently. Every pair
// has a home domain (Config.Domain, or its index modulo Domains) and
// is admitted against that domain's own gate. Workers are homed
// round-robin across the domains and take admitted work from their
// home domain's ring first, then from the others; Stats.Domains counts
// both kinds of take. With Domains = 1 (the default) all of this
// degenerates to the single gate and queue of the unsharded runtime.
//
// The paper's semantics are preserved exactly: never more than MTL
// memory tasks in flight per domain (admission-time), compute after
// its pair's memory task, scatter after compute, and per-pair
// monitoring feeding the controller. Stats totals (Pairs,
// CompletedPairs, peak concurrency, decision history) remain
// deterministic for a given workload and policy; the task interleaving
// across workers is not.
//
// Unlike the paper's pthread runtime, goroutines cannot be pinned to
// cores portably — the Go scheduler multiplexes them — so wall-clock
// speedups depend on the host memory system and are not asserted by
// the test suite; the simulator is the quantitative substrate. The
// throttling semantics are identical and are tested here.
//
// The runtime is built to survive hostile workloads: RunContext
// honours context cancellation and per-Run deadlines (workers drain
// between tasks and partial Stats are returned), Config.Retry replays
// tasks that error or panic with jittered exponential backoff,
// Config.StallTimeout arms a watchdog that flags wedged tasks and
// degrades the Dynamic controller to the conventional schedule, and
// the FaultInjector in chaos.go exercises all of it under seeded
// fault injection.
package host

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
	"memthrottle/internal/stats"
)

// Pair is one gather-compute(-scatter) work unit. Memory should move
// the pair's footprint toward the cache (the paper uses prefetch
// loops); Compute consumes it; Scatter optionally writes results back.
// Memory and Scatter count against the MTL; Compute does not.
//
// Each task slot has a plain and an error-returning form; set exactly
// one of the two (the error form makes the task eligible for retry on
// a returned error as well as on a panic).
type Pair struct {
	Memory  func()
	Compute func()
	Scatter func() // optional

	// MemoryErr, ComputeErr and ScatterErr are the error-returning
	// variants of the slots above.
	MemoryErr  func() error
	ComputeErr func() error
	ScatterErr func() error

	// Class tags the pair's traffic class (0..core.MaxClasses-1; the
	// zero value is the default class). Class-aware controllers
	// (core.ClassLimiter, e.g. a blacklist policy behind
	// core.PolicyThrottler) see the tag on every sample and may cap the
	// class's concurrent memory tasks or demote it outright; class-blind
	// controllers ignore it entirely.
	Class int
}

// check validates p: each task slot set at most once, memory and
// compute present, the class in range. Run and Submit both apply it.
func (p *Pair) check() error {
	slots := [...]struct {
		name           string
		plain, withErr bool
	}{
		{"Memory", p.Memory != nil, p.MemoryErr != nil},
		{"Compute", p.Compute != nil, p.ComputeErr != nil},
		{"Scatter", p.Scatter != nil, p.ScatterErr != nil},
	}
	for k, sl := range slots {
		if sl.plain && sl.withErr {
			return fmt.Errorf("sets both %s and %sErr", sl.name, sl.name)
		}
		if k < stageScatter && !sl.plain && !sl.withErr {
			return errors.New("missing memory or compute task")
		}
	}
	if p.Class < 0 || p.Class >= core.MaxClasses {
		return fmt.Errorf("class = %d, want within [0, %d)", p.Class, core.MaxClasses)
	}
	return nil
}

// Policy selects the throttling controller.
type Policy int

const (
	// Conventional runs without throttling (MTL = workers).
	Conventional Policy = iota
	// Static enforces a fixed MTL (Config.MTL).
	Static
	// Dynamic runs the paper's mechanism: phase detection plus
	// binary-search MTL selection.
	Dynamic
	// OnlineExhaustive runs the naive baseline (§V).
	OnlineExhaustive
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Conventional:
		return "conventional"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case OnlineExhaustive:
		return "online-exhaustive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines (the paper spawns
	// one thread per core). Default: runtime.GOMAXPROCS(0).
	Workers int
	// Policy selects the controller. Default: Dynamic.
	Policy Policy
	// Throttler plugs a custom controller, overriding Policy — the
	// host-side entry point of the policy-plugin architecture. Any
	// core.Throttler works; one that also implements core.ClassLimiter
	// (e.g. core.PolicyThrottler wrapping a blacklist policy) gets
	// per-class admission and ingress shedding, and one implementing
	// core.Observer receives issue/stall/retry signals. The runtime owns
	// the controller's mutations; it must not be shared across runtimes.
	Throttler core.Throttler
	// MTL is the fixed limit for the Static policy. With Domains > 1
	// it is the per-domain limit: each domain admits up to MTL
	// concurrent memory tasks homed there, exactly as each DIMM of the
	// paper's 2-DIMM platform carries its own MTL.
	MTL int
	// W is the monitor window for adaptive policies. Default: 16.
	W int
	// Domains shards the runtime into independent memory domains:
	// per-domain MTL gates and queues, with workers homed round-robin
	// across them. Default: 1 (the unsharded runtime).
	Domains int
	// Domain maps a pair to its home domain in [0, Domains). Run passes
	// the pair's index in the phase; Serve passes its submission
	// sequence number. nil homes pair i at i % Domains. Use it to
	// mirror the real placement of each pair's footprint (NUMA node,
	// DIMM).
	Domain func(pair int) int
	// Retry re-executes tasks that return an error or panic. The zero
	// value disables retry.
	Retry RetryPolicy
	// RunTimeout, when positive, bounds every Run/RunContext call: on
	// expiry the run drains and returns partial Stats plus
	// context.DeadlineExceeded.
	RunTimeout time.Duration
	// StallTimeout, when positive, arms a watchdog that flags tasks
	// running longer than this (Stats.Stalls) and, after
	// StallFallbackAfter flags in one run, degrades the Dynamic
	// controller to the conventional schedule. Default: off.
	StallTimeout time.Duration
	// StallFallbackAfter is the number of stalled tasks in one run
	// that triggers graceful degradation. Default: 3 (when the
	// watchdog is armed).
	StallFallbackAfter int
	// StallRecoverAfter, when positive, lets the watchdog re-arm a
	// degraded Dynamic controller after that many consecutive clean
	// scans (no in-flight task over StallTimeout): the attacker that
	// wedged the runtime has stopped, so adaptive throttling resumes
	// with a fresh MTL selection. 0 (the default) makes degradation
	// last for the life of the controller.
	StallRecoverAfter int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.W == 0 {
		c.W = 16
	}
	if c.Domains == 0 {
		c.Domains = 1
	}
	if c.StallTimeout > 0 && c.StallFallbackAfter == 0 {
		c.StallFallbackAfter = 3
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// validate reports a configuration error.
func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("host: Workers = %d, want >= 1", c.Workers)
	}
	if c.W < 1 {
		return fmt.Errorf("host: W = %d, want >= 1", c.W)
	}
	if c.Domains < 1 {
		return fmt.Errorf("host: Domains = %d, want >= 1", c.Domains)
	}
	if c.Domain != nil && c.Domains < 2 {
		return fmt.Errorf("host: Domain assignment set with %d domain(s)", c.Domains)
	}
	if c.Throttler != nil {
		if c.MTL != 0 {
			return fmt.Errorf("host: MTL set with a custom Throttler")
		}
		if c.Policy != Conventional {
			return fmt.Errorf("host: Policy %v set with a custom Throttler", c.Policy)
		}
	} else {
		if c.Policy == Static && (c.MTL < 1 || c.MTL > c.Workers) {
			return fmt.Errorf("host: static MTL = %d, want within [1, %d]", c.MTL, c.Workers)
		}
		if c.Policy != Static && c.MTL != 0 {
			return fmt.Errorf("host: MTL set with non-static policy %v", c.Policy)
		}
		if (c.Policy == Dynamic || c.Policy == OnlineExhaustive) && c.Workers < 2 {
			return fmt.Errorf("host: adaptive policies need >= 2 workers")
		}
	}
	if err := c.Retry.validate(); err != nil {
		return err
	}
	if c.RunTimeout < 0 {
		return fmt.Errorf("host: RunTimeout = %v, want >= 0", c.RunTimeout)
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("host: StallTimeout = %v, want >= 0", c.StallTimeout)
	}
	if c.StallFallbackAfter < 0 {
		return fmt.Errorf("host: StallFallbackAfter = %d, want >= 0", c.StallFallbackAfter)
	}
	if c.StallFallbackAfter > 0 && c.StallTimeout == 0 {
		return fmt.Errorf("host: StallFallbackAfter set without StallTimeout")
	}
	if c.StallRecoverAfter < 0 {
		return fmt.Errorf("host: StallRecoverAfter = %d, want >= 0", c.StallRecoverAfter)
	}
	if c.StallRecoverAfter > 0 && c.StallTimeout == 0 {
		return fmt.Errorf("host: StallRecoverAfter set without StallTimeout")
	}
	return nil
}

// DomainStats is the per-domain slice of one Run's dispatch activity,
// merged from the per-worker counter shards after the session ends.
// Every worker takes admitted jobs from a shared per-domain ring, home
// domain first, so there are no private queues to steal from: the
// steal family counts takes, charged to the domain of the taken job,
// and Parks and Idle are charged to the parking worker's home domain.
//
// Parks counts only blocking parks — a worker whose adaptive pre-park
// spin (spin.go) found work or consumed its wakeup token mid-spin
// never blocked, so it contributes neither a park nor idle time. Idle
// is sampled once per park/unpark cycle, so it measures blocked time
// exclusively: spin time is running time, by design.
type DomainStats struct {
	Pairs        int           // pairs homed in this domain
	Steals       int           // admitted jobs taken by workers homed here
	RemoteSteals int           // admitted jobs taken by workers homed in another domain
	StolenJobs   int           // jobs that left this domain: equals RemoteSteals (one job per take)
	Spills       int           // admissions that found the admitted ring full (expected 0)
	Parks        int           // blocking park events of workers homed here
	Idle         time.Duration // blocked-park time of workers homed here
	PeakActive   int           // peak concurrent admitted memory tasks
}

// Stats summarises one Run. On a cancelled or failed run the counters
// cover the completed prefix of the work.
type Stats struct {
	Elapsed        time.Duration
	Pairs          int // pairs submitted
	CompletedPairs int // pairs whose compute task finished
	FinalMTL       int
	MTLDecisions   []int
	MeanTm         time.Duration // mean memory-task duration
	MeanTc         time.Duration // mean compute-task duration
	MaxConcurrentM int           // observed peak concurrent memory tasks, all domains

	Retries   int   // task re-executions performed
	Recovered int   // tasks that succeeded after at least one retry
	Stalls    int   // tasks flagged by the stall watchdog
	Stalled   []int // pair index of each flagged task, in detection order
	Degraded  bool  // Dynamic controller fell back to Conventional
	Cancelled bool  // run ended early on cancellation or deadline
	Spills    int   // sum of Domains[].Spills

	// Domains holds the per-domain dispatch counters, one entry per
	// configured memory domain (a single entry for the default
	// unsharded runtime).
	Domains []DomainStats
}

// Runtime schedules pairs under MTL throttling.
type Runtime struct {
	cfg Config
	th  core.Throttler

	// lim and obs are th's class-aware views, nil for class-blind
	// controllers. Both are safe for concurrent reads by contract
	// (atomic fields behind core.PolicyThrottler).
	lim core.ClassLimiter
	obs core.Observer

	// classActive counts in-flight memory tasks per traffic class,
	// maintained only when lim is set (the class-blind hot path pays
	// nothing). It spans Run and Serve sessions like the gates do.
	// Each counter is padded onto its own cache line: the eight-wide
	// array used to fit one line, so every class's admission CAS
	// invalidated every other class's counter.
	classActive [core.MaxClasses]stats.PaddedInt64

	// sig holds the per-worker signal shards (issue/retry counts per
	// class) when the controller supports batched harvesting
	// (core.SignalBatching): workers bump only their own padded shard
	// and the controller sums the shards once per monitor window via
	// SignalTotals. nil when the controller wants per-event OnSignal
	// calls (or consumes no signals at all). The shards span sessions —
	// totals are cumulative, as SignalSource requires.
	sig []sigShard

	// gates admit memory-class tasks with a CAS against the mirrored
	// MTL, one gate per memory domain. They span sessions so tasks
	// wedged past an aborted Run keep their accounting.
	gates []gate

	// memActive/memPeak aggregate in-flight memory tasks across all
	// domain gates for Stats.MaxConcurrentM (each gate also keeps its
	// own per-domain peak).
	memActive atomic.Int64
	memPeak   atomic.Int64

	// ctrlMu serializes every controller interaction (OnPair, History,
	// Health, degradation). Adaptive controllers take it once per
	// completed pair; it is never on the admission path.
	ctrlMu   sync.Mutex
	adaptive bool // the controller consumes samples (not core.Fixed)

	closed atomic.Bool

	// The runtime hosts one session at a time. busy is held by the open
	// session (Run fails while a Serve session holds it, and a second
	// Serve fails); runSem queues concurrent Run calls. session is the
	// open session, where a task outliving an aborted Run pumps the slot
	// it frees; idle is the arena the last clean session handed back.
	busy    atomic.Bool
	runSem  chan struct{}
	session atomic.Pointer[Server]
	idle    atomic.Pointer[arena]
}

// New builds a runtime. The controller persists across Run calls, so
// phase history carries over exactly as in the paper's long-running
// applications.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{cfg: cfg, runSem: make(chan struct{}, 1)}
	switch {
	case cfg.Throttler != nil:
		r.th = cfg.Throttler
	case cfg.Policy == Conventional:
		r.th = core.Fixed{K: cfg.Workers}
	case cfg.Policy == Static:
		r.th = core.Fixed{K: cfg.MTL}
	case cfg.Policy == Dynamic:
		r.th = core.NewDynamic(core.NewModel(cfg.Workers), cfg.W)
	case cfg.Policy == OnlineExhaustive:
		r.th = core.NewOnlineExhaustive(core.NewModel(cfg.Workers), cfg.W, 0.10)
	default:
		return nil, fmt.Errorf("host: unknown policy %v", cfg.Policy)
	}
	_, fixed := r.th.(core.Fixed)
	r.adaptive = !fixed
	r.lim, _ = r.th.(core.ClassLimiter)
	r.obs, _ = r.th.(core.Observer)
	if sb, ok := r.th.(core.SignalBatching); ok && r.obs != nil {
		r.sig = make([]sigShard, cfg.Workers)
		sb.SetSignalSource(r)
	}
	r.gates = make([]gate, cfg.Domains)
	r.setLimit(int64(r.th.MTL()))
	return r, nil
}

// MTL reports the currently enforced per-domain limit. It is a single
// atomic load — samplers and watchdogs polling it never contend with
// workers.
func (r *Runtime) MTL() int {
	return int(r.gates[0].limit.Load())
}

// admit claims up to max memory-task slots in domain d in one CAS and
// maintains the cross-domain peak. The domain gate's CAS is the real
// admission; the global counters only feed Stats.MaxConcurrentM, and
// with a single domain the gate's own peak already is the global one,
// so the unsharded path pays no extra atomics.
func (r *Runtime) admit(d int, max int64) int64 {
	n := r.gates[d].tryAcquireN(max)
	if n > 0 && len(r.gates) > 1 {
		a := r.memActive.Add(n)
		for {
			p := r.memPeak.Load()
			if a <= p || r.memPeak.CompareAndSwap(p, a) {
				break
			}
		}
	}
	return n
}

// release returns n of domain d's slots. The global count falls before
// the gate frees the slots, so it never runs ahead of the gates'
// combined occupancy: an admission that races this release can take a
// freed slot only after the count fell, and MaxConcurrentM never
// over-counts.
func (r *Runtime) release(d int, n int64) {
	if len(r.gates) > 1 {
		r.memActive.Add(-n)
	}
	r.gates[d].releaseN(n)
}

// setLimit mirrors a controller limit into every domain gate. Callers
// hold ctrlMu.
func (r *Runtime) setLimit(limit int64) {
	for d := range r.gates {
		r.gates[d].limit.Store(limit)
	}
}

// home reports pair i's home domain.
func (r *Runtime) home(i int) (int, error) {
	nd := r.cfg.Domains
	if r.cfg.Domain == nil {
		return i % nd, nil
	}
	d := r.cfg.Domain(i)
	if d < 0 || d >= nd {
		return 0, fmt.Errorf("host: pair %d homed at domain %d, want within [0, %d)", i, d, nd)
	}
	return d, nil
}

// admitClass claims an in-flight slot for class c against the
// controller's per-class limit (blacklisted classes report 1 — fully
// serialized). Class-blind controllers admit unconditionally and pay
// nothing; class-aware ones always maintain the count so a limit that
// appears mid-run (a demotion) binds against accurate occupancy.
func (r *Runtime) admitClass(c int) bool {
	if r.lim == nil {
		return true
	}
	cl := r.lim.ClassLimit(c)
	if cl <= 0 {
		r.classActive[c].Add(1)
		return true
	}
	for {
		a := r.classActive[c].Load()
		if a >= int64(cl) {
			return false
		}
		if r.classActive[c].CompareAndSwap(a, a+1) {
			return true
		}
	}
}

// releaseClass returns class c's slot.
func (r *Runtime) releaseClass(c int) {
	if r.lim == nil {
		return
	}
	r.classActive[c].Add(-1)
}

// peakConcurrentM reports the run-wide peak concurrent memory tasks.
func (r *Runtime) peakConcurrentM() int {
	if len(r.gates) == 1 {
		return int(r.gates[0].peak.Load())
	}
	return int(r.memPeak.Load())
}

// Health reports the controller's measurement-guard summary (adaptive
// policies only; the zero Health otherwise).
func (r *Runtime) Health() core.Health {
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	switch t := r.th.(type) {
	case *core.Dynamic:
		return t.Health()
	case *core.OnlineExhaustive:
		return t.Health()
	default:
		return core.Health{}
	}
}

// Close marks the runtime closed; subsequent Run calls fail.
func (r *Runtime) Close() {
	r.closed.Store(true)
}

// Run executes one phase of pairs to completion and returns its
// statistics. Within the phase, compute tasks run after their memory
// tasks, scatters after computes, and at most MTL memory tasks per
// domain are in flight; memory tasks are admitted in pair order within
// their home domain. Run blocks until the phase completes (the paper's
// phases are barrier-separated). Concurrent Run calls on one runtime
// run one at a time.
func (r *Runtime) Run(pairs []Pair) (Stats, error) {
	return r.RunContext(context.Background(), pairs)
}

// RunContext is Run with cancellation: when ctx is cancelled (or the
// configured RunTimeout expires) queued tasks are discarded and the
// call returns the partial Stats of the completed prefix together with
// ctx's error. The first task that fails for good ends the phase the
// same way. Tasks already executing are not interrupted — a worker
// wedged inside user code keeps its goroutine (and its gate slot)
// until the task returns — but the call itself returns promptly and
// the runtime stays usable. Time spent queued behind another Run
// counts against ctx and RunTimeout too.
//
// A Run is a closed-loop session of the dispatch core: every pair is
// installed in its home domain's queue in one step, one pump starts
// admission, and the session ends when the last pair retires.
func (r *Runtime) RunContext(ctx context.Context, pairs []Pair) (Stats, error) {
	n := len(pairs)
	if n == 0 {
		return Stats{}, errors.New("host: Run with no pairs")
	}
	if r.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.RunTimeout)
		defer cancel()
	}
	if err := r.lockRun(ctx); err != nil {
		return Stats{Pairs: n, Cancelled: true}, err
	}
	defer func() { <-r.runSem }()
	a := r.borrow()
	bail := func(st Stats, err error) (Stats, error) {
		r.idle.Store(a)
		return st, err
	}
	if cap(a.jobs) < n {
		a.jobs = make([]servJob, n)
	}
	jobs := a.jobs[:n]
	for i := range pairs {
		if err := pairs[i].check(); err != nil {
			return bail(Stats{}, fmt.Errorf("host: pair %d %w", i, err))
		}
		d, err := r.home(i)
		if err != nil {
			return bail(Stats{}, err)
		}
		jobs[i].fill(&pairs[i], int64(i), d)
	}
	if err := ctx.Err(); err != nil {
		return bail(Stats{Pairs: n, Cancelled: true}, err)
	}
	if r.closed.Load() {
		return bail(Stats{}, errors.New("host: runtime closed"))
	}
	if !r.busy.CompareAndSwap(false, true) {
		return bail(Stats{}, errors.New("host: runtime is serving (drain the server first)"))
	}

	s := r.open(a, ServeConfig{}.withDefaults(), true)
	s.inflight.Store(int64(n))
	s.draining.Store(true)
	doms := make([]DomainStats, len(s.doms))
	for i := range jobs {
		d := jobs[i].dom
		s.doms[d].backlog.jobs = append(s.doms[d].backlog.jobs, &jobs[i])
		doms[d].Pairs++
	}
	for d := range s.doms {
		s.doms[d].backlog.n.Store(int64(doms[d].Pairs))
	}
	s.pumpAll()
	select {
	case <-s.drained:
	case <-ctx.Done():
		s.stop(ctx.Err(), true)
	}

	st := s.runStats(doms)
	s.errMu.Lock()
	err, cancelled := s.err, s.cancelled
	s.errMu.Unlock()
	st.Cancelled = cancelled
	if !s.aborted.Load() {
		clear(jobs) // drop the user's closures before the arena idles
	}
	s.close()
	return st, err
}

// lockRun waits for the runtime's Run slot, giving up when ctx ends
// first. A free slot is taken even if ctx already ended, so the caller
// reports validation errors ahead of cancellation.
func (r *Runtime) lockRun(ctx context.Context) error {
	select {
	case r.runSem <- struct{}{}:
		return nil
	default:
	}
	select {
	case r.runSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// borrow takes the runtime's idle arena, once the workers of the
// session that used it last have exited, or builds a fresh one.
func (r *Runtime) borrow() *arena {
	a := r.idle.Swap(nil)
	if a == nil {
		return newArena(r.cfg, r.lim != nil)
	}
	a.quiesce()
	return a
}

// runStats assembles a Run's Stats from its session: the worker shards
// merged into the per-domain view, the watchdog's findings and the
// controller's history. On an aborted run the counters cover the
// completed prefix.
func (s *Server) runStats(doms []DomainStats) Stats {
	r := s.rt
	st := Stats{
		Elapsed:        time.Since(s.start),
		MaxConcurrentM: r.peakConcurrentM(),
		Retries:        int(s.retries.Load()),
		Recovered:      int(s.recovered.Load()),
		Domains:        doms,
	}
	var sumTm, nTm, sumTc int64
	for i := range s.workers[:s.spawned.Load()] {
		w := s.workers[i].Load()
		if w == nil {
			continue // claimed by a spawn still in progress
		}
		sumTm += w.sumTm.Load()
		nTm += w.nTm.Load()
		sumTc += w.sumTc.Load()
		st.CompletedPairs += int(w.nTc.Load())
		doms[w.home].Parks += int(w.parks.Load())
		doms[w.home].Idle += time.Duration(w.idleNs.Load())
		for d := range w.doms {
			doms[d].Steals += int(w.doms[d].local.Load())
			doms[d].RemoteSteals += int(w.doms[d].remote.Load())
		}
	}
	for d := range doms {
		st.Pairs += doms[d].Pairs
		doms[d].StolenJobs = doms[d].RemoteSteals
		doms[d].Spills = int(s.doms[d].spills.Load())
		doms[d].PeakActive = int(r.gates[d].peak.Load())
		st.Spills += doms[d].Spills
	}
	if nTm > 0 {
		st.MeanTm = time.Duration(sumTm / nTm)
	}
	if st.CompletedPairs > 0 {
		st.MeanTc = time.Duration(sumTc / int64(st.CompletedPairs))
	}
	s.stallMu.Lock()
	st.Stalls = int(s.stalls)
	for _, seq := range s.stalledSeqs {
		st.Stalled = append(st.Stalled, int(seq))
	}
	st.Degraded = s.degraded
	s.stallMu.Unlock()

	r.ctrlMu.Lock()
	st.FinalMTL = r.th.MTL()
	switch t := r.th.(type) {
	case *core.Dynamic:
		st.MTLDecisions = append([]int(nil), t.History...)
		st.Degraded = t.Degraded()
	case *core.OnlineExhaustive:
		st.MTLDecisions = append([]int(nil), t.History...)
	case *core.PolicyThrottler:
		st.MTLDecisions = append([]int(nil), t.History...)
	}
	r.ctrlMu.Unlock()
	return st
}

// RunPhases executes phases back to back, one Run session each,
// returning per-phase stats.
func (r *Runtime) RunPhases(phases [][]Pair) ([]Stats, error) {
	var out []Stats
	for i, ph := range phases {
		st, err := r.Run(ph)
		if err != nil {
			return out, fmt.Errorf("host: phase %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}
