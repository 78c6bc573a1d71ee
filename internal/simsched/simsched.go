// Package simsched executes stream programs on the simulated machine
// under a throttling policy. It is the simulated analogue of the
// paper's application-layer runtime (§V): per-hardware-thread workers
// dequeue tasks from a work queue, a counter enforces the MTL
// constraint on concurrent memory tasks, phases are separated by
// barriers, and completed memory/compute pairs are reported to the
// policy, which may retarget the MTL at any time.
package simsched

import (
	"fmt"
	"sync/atomic"

	"memthrottle/internal/cache"
	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
	"memthrottle/internal/stream"
	"memthrottle/internal/trace"
)

// MaxMemDomains bounds the per-domain parameter array in Config. The
// array (rather than a slice) keeps Config comparable, which the
// experiment layer relies on for memoisation keys.
const MaxMemDomains = 4

// Config describes one simulation run.
type Config struct {
	Machine machine.Config
	Mem     contend.Params
	// DomainMem holds the per-domain fluid parameters when
	// Machine.MemDomains > 1 (entry d models domain d's DIMM; entries
	// past the domain count are ignored and must stay zero). With a
	// single domain Mem alone is used. Pairs are homed round-robin
	// (pair index, or MixRun's enqueue index, modulo the domain
	// count), matching the host runtime's default placement rule.
	DomainMem [MaxMemDomains]contend.Params
	// LLCBytes is the shared last-level cache capacity (paper: 8 MB).
	LLCBytes float64
	// ResidentOverheadBytes models the cache share permanently held
	// by instructions, runtime structures and the OS — the "#
	// instructions and data together" that tips 2 MB tasks over the
	// edge in Fig. 13(c) while 0.5/1 MB tasks still fit.
	ResidentOverheadBytes float64
	// MonitorOverhead is charged to the completing worker for every
	// pair the policy monitors (timer reads + bookkeeping).
	MonitorOverhead sim.Time
	// NoiseSigma injects log-normal task-duration jitter (system
	// noise); 0 disables it. Seed makes runs reproducible.
	NoiseSigma float64
	Seed       int64
	// RecordTrace captures a per-thread timeline in the result.
	RecordTrace bool
	// SimPar shards the simulation across engines when the machine has
	// multiple memory domains: each domain's fluid pool lives on its own
	// timing-wheel engine and a merge-mode sim.Group coordinates them.
	// The engines share one sequence counter and every clock tracks the
	// global fire instant, so results are byte-identical to the default
	// single-engine run — `-simpar` is a performance knob, never a
	// modelling one. With one domain it degenerates to the default path.
	SimPar bool
}

// Default returns the paper's base configuration for the given fluid
// memory parameters: the i7-860 machine, 8 MB LLC, and a 2 µs
// monitoring cost per measured pair.
func Default(mem contend.Params) Config {
	return Config{
		Machine:               machine.I7860(),
		Mem:                   mem,
		LLCBytes:              8 << 20,
		ResidentOverheadBytes: 768 << 10,
		MonitorOverhead:       2 * sim.Microsecond,
		Seed:                  1,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if nd := c.Machine.Domains(); nd > 1 {
		if nd > MaxMemDomains {
			return fmt.Errorf("simsched: MemDomains = %d, want <= %d", nd, MaxMemDomains)
		}
		for d := 0; d < nd; d++ {
			if err := c.DomainMem[d].Validate(); err != nil {
				return fmt.Errorf("simsched: DomainMem[%d]: %w", d, err)
			}
		}
	}
	if c.LLCBytes <= 0 {
		return fmt.Errorf("simsched: LLCBytes = %g, want > 0", c.LLCBytes)
	}
	if c.ResidentOverheadBytes < 0 || c.ResidentOverheadBytes >= c.LLCBytes {
		return fmt.Errorf("simsched: ResidentOverheadBytes = %g, want within [0, LLCBytes)", c.ResidentOverheadBytes)
	}
	if c.MonitorOverhead < 0 {
		return fmt.Errorf("simsched: MonitorOverhead = %v, want >= 0", c.MonitorOverhead)
	}
	if c.NoiseSigma < 0 {
		return fmt.Errorf("simsched: NoiseSigma = %g, want >= 0", c.NoiseSigma)
	}
	return nil
}

// Result summarises one run.
type Result struct {
	Policy     string
	TotalTime  sim.Time
	PhaseTimes []sim.Time

	// Idle/busy accounting across all hardware threads: busy covers
	// task execution and monitoring overhead.
	BusyTime sim.Time
	IdleTime sim.Time

	PairsCompleted int
	MonitoredPairs int
	OverheadTime   sim.Time

	FinalMTL     int
	MTLDecisions []int // D-MTL history for adaptive policies
	PhaseMTL     []int // MTL in force as each phase completed
	TotalProbes  int   // candidate-MTL windows measured by the policy

	// MeanTm[k] is the observed mean memory-task duration among tasks
	// started while MTL=k was in force; MeanTc the overall mean
	// compute duration.
	MeanTm map[int]sim.Time
	MeanTc sim.Time

	// CacheMissFraction is the mean LLC miss fraction seen by compute
	// tasks (nonzero only when live footprints overflow, Fig. 13c);
	// LLCPeak is the maximum concurrently resident footprint.
	CacheMissFraction float64
	LLCPeak           float64

	Timeline *trace.Timeline // nil unless Config.RecordTrace
}

// rig is the simulated machine every run loop drives: the event
// engines, the cores, one fluid memory pool per domain, the shared
// LLC, the noise RNG and one worker per hardware thread.
type rig struct {
	cfg       Config
	th        core.Throttler
	eng       *sim.Engine
	group     *sim.Group // merge-mode engine group under SimPar, else nil
	mach      *machine.Machine
	pools     []*contend.Pool // one fluid memory model per domain
	llc       *cache.LLC
	noise     *stats.Noise
	workers   []*worker
	activeMem []int // in-flight memory tasks per domain
}

// runner holds the live state of one simulation.
type runner struct {
	rig
	prog *stream.Program

	phase          int
	phaseRemaining int
	phaseStart     sim.Time
	readyMem       []*taskRun // live from memHead on
	memHead        int
	readyCompute   []*taskRun

	res      Result
	tmByK    map[int]*stats.Welford
	tcAgg    stats.Welford
	missAgg  stats.Welford
	timeline *trace.Timeline
}

// taskRun is the runtime state of one task.
type taskRun struct {
	task  *stream.Task
	pair  *pairRun
	dom   int // home memory domain of the task's pair
	start sim.Time
	mtlAt int // MTL in force when the task started (memory tasks)
}

// pairRun carries the measured durations shared by a pair's tasks.
type pairRun struct {
	gatherBytes  float64 // noised effective bytes
	scatterBytes float64
	computeWork  sim.Time // noised solo duration
	gatherDur    sim.Time
	computeDur   sim.Time
}

// worker is one hardware thread executing tasks.
type worker struct {
	id   int
	core *machine.Core
	idle bool

	// parts counts the unfinished parts (core work, LLC-miss traffic)
	// of the worker's compute task; done runs when the last finishes.
	// partFn is w.part, bound once so a compute start allocates no
	// completion closure of its own.
	parts  int
	done   func()
	partFn func()
}

func (w *worker) part() {
	w.parts--
	if w.parts == 0 {
		w.done()
	}
}

// wheelTick is the level-0 bucket width of every engine a run builds.
// The scheduler's events are task-scale: about three quarters of them
// are due 32-262 µs ahead (gather and compute completions, the next
// arrival), past the 16 µs level-0 window the wheel's default 64 ns
// tick spans, so each would be linked into level 1 and spilled down
// later. A 4 µs tick puts that whole band inside level 0's 1 ms window.
// Fire order is (due, seq) whatever the tick, so results do not
// depend on it.
const wheelTick = 4 * sim.Microsecond

// newRig validates cfg and builds a private machine for one run.
// The main engine carries the cores, the scheduler bookkeeping and the
// arrivals. With SimPar and multiple domains each domain's pool gets a
// private timing-wheel engine under a merge-mode sim.Group; otherwise
// every pool shares the main engine. With a unified memory system Mem
// parameterises the single pool, otherwise each domain's DIMM gets its
// own independently calibrated model. Panics on invalid configuration.
func newRig(cfg Config, th core.Throttler) rig {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nd := cfg.Machine.Domains()
	poolEng := make([]*sim.Engine, nd)
	r := rig{cfg: cfg, th: th}
	if cfg.SimPar && nd > 1 {
		engines := make([]*sim.Engine, nd+1)
		for i := range engines {
			engines[i] = sim.NewWheelTick(wheelTick)
		}
		r.eng, r.group = engines[0], sim.NewGroup(engines...)
		copy(poolEng, engines[1:])
	} else {
		r.eng = sim.NewWheelTick(wheelTick)
		for d := range poolEng {
			poolEng[d] = r.eng
		}
	}
	r.mach = machine.New(r.eng, cfg.Machine)
	r.llc = cache.NewLLC(cfg.LLCBytes)
	r.noise = stats.NewNoise(cfg.NoiseSigma, cfg.Seed)
	r.activeMem = make([]int, nd)
	for d := 0; d < nd; d++ {
		params := cfg.Mem
		if nd > 1 {
			params = cfg.DomainMem[d]
		}
		r.pools = append(r.pools, contend.NewPool(poolEng[d], params))
	}
	for i := 0; i < cfg.Machine.HardwareThreads(); i++ {
		w := &worker{id: i, core: r.mach.Core(i % cfg.Machine.Cores), idle: true}
		w.partFn = w.part
		r.workers = append(r.workers, w)
	}
	if cfg.ResidentOverheadBytes > 0 {
		r.llc.Reserve(cfg.ResidentOverheadBytes)
	}
	return r
}

// tokenFree reports whether any domain has an MTL token left under
// mtl. When none has, no memory task is admissible and the dispatch
// loops skip their ready-queue scan.
func (r *rig) tokenFree(mtl int) bool {
	for _, a := range r.activeMem {
		if a < mtl {
			return true
		}
	}
	return false
}

// takeAt removes q[i] from the live queue q[head:] and returns the
// queue, its new head and the removed element. Taking the head only
// advances it; both rewind to the start once the queue empties.
func takeAt[T any](q []*T, head, i int) ([]*T, int, *T) {
	x := q[i]
	if i != head {
		return append(q[:i], q[i+1:]...), head, x
	}
	q[i] = nil
	if head++; head == len(q) {
		return q[:0], 0, x
	}
	return q, head, x
}

// drain runs the event loop to completion.
func (r *rig) drain() {
	if r.group != nil {
		r.group.Run()
	} else {
		r.eng.Run()
	}
}

// startCompute runs work on w's core. If live footprints overflow the
// LLC the task also drives miss traffic for its missed share of bytes
// into the home domain's pool, where the footprint lives; done fires
// once both parts finish. It returns the miss fraction.
func (r *rig) startCompute(w *worker, dom int, bytes float64, work sim.Time, done func()) float64 {
	missFrac := r.llc.MissFraction()
	w.parts, w.done = 1, done
	if missFrac > 0 {
		w.parts++
		r.pools[dom].Start(missFrac*bytes, missFrac, w.partFn)
	}
	w.core.StartCompute(work, w.partFn)
	return missFrac
}

// runCount counts Run invocations process-wide. The experiment
// layer's caches are judged by how many simulations they avoid, so
// the count is exported for regression tests and CLI reporting.
var runCount atomic.Uint64

// RunCount reports the number of Run invocations so far in this
// process.
func RunCount() uint64 { return runCount.Load() }

// Run executes prog under the given throttler and returns the result.
// The throttler must be freshly constructed per run (it accumulates
// state). Each call builds a private engine, machine, memory pool and
// RNG, so independent runs may execute concurrently. Panics on
// invalid configuration or program: both are programmer-supplied.
func Run(prog *stream.Program, cfg Config, th core.Throttler) Result {
	runCount.Add(1)
	r := &runner{rig: newRig(cfg, th), prog: prog, tmByK: make(map[int]*stats.Welford)}
	if err := prog.Validate(); err != nil {
		panic(err)
	}
	threads := len(r.workers)
	if cfg.RecordTrace {
		r.timeline = trace.New(threads)
	}

	r.enterPhase(0)
	r.drain()

	if r.phase < len(prog.Phases) {
		panic(fmt.Sprintf("simsched: deadlock — run ended in phase %d/%d with %d tasks left",
			r.phase, len(prog.Phases), r.phaseRemaining))
	}

	r.res.Policy = th.Name()
	r.res.TotalTime = r.eng.Now()
	r.res.IdleTime = r.res.TotalTime*sim.Time(threads) - r.res.BusyTime
	r.res.FinalMTL = th.MTL()
	r.res.MTLDecisions = decisions(th)
	r.res.TotalProbes = probes(th)
	r.res.MeanTm = make(map[int]sim.Time, len(r.tmByK))
	for k, w := range r.tmByK {
		r.res.MeanTm[k] = sim.Time(w.Mean())
	}
	r.res.MeanTc = sim.Time(r.tcAgg.Mean())
	r.res.CacheMissFraction = r.missAgg.Mean()
	r.res.LLCPeak = r.llc.Peak()
	r.res.Timeline = r.timeline
	return r.res
}

// unwrapper lets decorating throttlers (fault injectors, corrupting
// measurement proxies) expose the adaptive policy they wrap so its
// decision history still reaches the Result.
type unwrapper interface{ Unwrap() core.Throttler }

// decisions extracts the D-MTL history from adaptive throttlers,
// looking through any decorator chain.
func decisions(th core.Throttler) []int {
	for th != nil {
		switch t := th.(type) {
		case *core.Dynamic:
			return append([]int(nil), t.History...)
		case *core.OnlineExhaustive:
			return append([]int(nil), t.History...)
		case *core.PolicyThrottler:
			return append([]int(nil), t.History...)
		default:
			u, ok := th.(unwrapper)
			if !ok {
				return nil
			}
			th = u.Unwrap()
		}
	}
	return nil
}

// probes extracts the probe-window count from adaptive throttlers,
// looking through any decorator chain.
func probes(th core.Throttler) int {
	for th != nil {
		switch t := th.(type) {
		case *core.Dynamic:
			return t.TotalProbes
		case *core.OnlineExhaustive:
			return t.TotalProbes
		default:
			u, ok := th.(unwrapper)
			if !ok {
				return 0
			}
			th = u.Unwrap()
		}
	}
	return 0
}

// enterPhase queues every task pair of phase p and dispatches workers.
func (r *runner) enterPhase(p int) {
	r.phase = p
	if p >= len(r.prog.Phases) {
		return
	}
	ph := &r.prog.Phases[p]
	r.phaseStart = r.eng.Now()
	r.phaseRemaining = 0
	for i := range ph.Pairs {
		pr := &ph.Pairs[i]
		pairState := &pairRun{
			gatherBytes: pr.Gather.Bytes * r.noise.Factor(),
			computeWork: pr.Compute.Work * sim.Time(r.noise.Factor()),
		}
		r.phaseRemaining += 2
		if pr.Scatter != nil {
			pairState.scatterBytes = pr.Scatter.Bytes * r.noise.Factor()
			r.phaseRemaining++
		}
		// Home domain: pair index modulo the domain count, the same
		// round-robin placement the host runtime defaults to.
		r.readyMem = insertByID(r.readyMem, r.memHead, &taskRun{
			task: pr.Gather, pair: pairState, dom: i % len(r.pools),
		})
	}
	r.dispatchAll()
}

// dispatchAll gives every idle worker a chance to pick up work. It
// stops at the first worker left idle: a failed dispatch changes no
// state, so every later idle worker would fail too.
func (r *runner) dispatchAll() {
	for _, w := range r.workers {
		if w.idle && !r.dispatch(w) {
			return
		}
	}
}

// dispatch assigns the next runnable task to w, or leaves it idle.
// Ready queues are ordered by task ID (program order); the worker
// takes the oldest runnable task, where a memory task is runnable only
// while its home domain holds MTL tokens (the limit applies per
// domain, as each DIMM of the paper's 2-DIMM platform carries its own
// MTL). This yields the per-thread gather-compute alternation of
// Fig. 4 and keeps the number of in-flight pairs — and hence the live
// LLC footprint — bounded. With one domain the admissibility scan
// degenerates to the old head-of-queue check. It reports whether w got
// a task.
func (r *runner) dispatch(w *worker) bool {
	mtl := r.th.MTL()
	memIdx := -1
	if r.tokenFree(mtl) {
		for i := r.memHead; i < len(r.readyMem); i++ {
			if r.activeMem[r.readyMem[i].dom] < mtl {
				memIdx = i
				break
			}
		}
	}
	compOK := len(r.readyCompute) > 0
	switch {
	case memIdx >= 0 && (!compOK || r.readyMem[memIdx].task.ID < r.readyCompute[0].task.ID):
		var ts *taskRun
		r.readyMem, r.memHead, ts = takeAt(r.readyMem, r.memHead, memIdx)
		r.startMemory(w, ts)
	case compOK:
		ts := r.readyCompute[0]
		r.readyCompute = r.readyCompute[1:]
		r.startComputeTask(w, ts)
	default:
		w.idle = true
		return false
	}
	w.idle = false
	return true
}

// insertByID inserts ts into the live queue q[head:], keeping it
// sorted by task ID.
func insertByID(q []*taskRun, head int, ts *taskRun) []*taskRun {
	i := len(q)
	for i > head && q[i-1].task.ID > ts.task.ID {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = ts
	return q
}

// startMemory runs a gather or scatter task on w.
func (r *runner) startMemory(w *worker, ts *taskRun) {
	ts.start = r.eng.Now()
	ts.mtlAt = r.th.MTL()
	r.activeMem[ts.dom]++
	bytes := ts.pair.gatherBytes
	if ts.task.Kind == stream.Scatter {
		bytes = ts.pair.scatterBytes
	}
	r.llc.Reserve(bytes)
	r.pools[ts.dom].Start(bytes, 1, func() {
		r.finishMemory(w, ts, bytes)
	})
}

func (r *runner) finishMemory(w *worker, ts *taskRun, bytes float64) {
	now := r.eng.Now()
	dur := now - ts.start
	r.account(w, ts, dur)
	r.activeMem[ts.dom]--

	switch ts.task.Kind {
	case stream.Gather:
		// The gathered footprint stays resident until its compute
		// task has consumed it; record Tm for the pair.
		ts.pair.gatherDur = dur
		r.welfordTm(ts.mtlAt).Add(float64(dur))
		r.readyCompute = insertByID(r.readyCompute, 0, &taskRun{
			task: computeOf(r.prog, ts.task), pair: ts.pair, dom: ts.dom,
		})
	case stream.Scatter:
		r.llc.Release(bytes)
	}
	r.taskDone(w)
}

// computeOf finds the compute task of the same pair.
func computeOf(p *stream.Program, gather *stream.Task) *stream.Task {
	return p.Phases[gather.Phase].Pairs[gather.Pair].Compute
}

// scatterOf finds the scatter task of the same pair, or nil.
func scatterOf(p *stream.Program, t *stream.Task) *stream.Task {
	return p.Phases[t.Phase].Pairs[t.Pair].Scatter
}

// startComputeTask runs a compute task on w, completing it once its
// core work and any LLC-miss traffic are done.
func (r *runner) startComputeTask(w *worker, ts *taskRun) {
	ts.start = r.eng.Now()
	missFrac := r.startCompute(w, ts.dom, ts.pair.gatherBytes, ts.pair.computeWork, func() {
		r.finishCompute(w, ts)
	})
	r.missAgg.Add(missFrac)
}

func (r *runner) finishCompute(w *worker, ts *taskRun) {
	now := r.eng.Now()
	dur := now - ts.start
	r.account(w, ts, dur)
	ts.pair.computeDur = dur
	r.tcAgg.Add(float64(dur))
	r.llc.Release(ts.pair.gatherBytes)
	r.res.PairsCompleted++

	if sc := scatterOf(r.prog, ts.task); sc != nil {
		r.readyMem = insertByID(r.readyMem, r.memHead, &taskRun{task: sc, pair: ts.pair, dom: ts.dom})
	}

	monitored := r.th.Monitoring()
	r.th.OnPair(core.PairSample{Tm: ts.pair.gatherDur, Tc: dur, Now: now})

	if monitored && r.cfg.MonitorOverhead > 0 {
		r.res.MonitoredPairs++
		r.res.OverheadTime += r.cfg.MonitorOverhead
		r.res.BusyTime += r.cfg.MonitorOverhead
		if r.timeline != nil {
			r.timeline.Add(trace.Segment{
				Thread: w.id, Start: now, End: now + r.cfg.MonitorOverhead,
				Label: "mon", Memory: false,
			})
		}
		r.eng.After(r.cfg.MonitorOverhead, func() { r.taskDone(w) })
		return
	}
	if monitored {
		r.res.MonitoredPairs++
	}
	r.taskDone(w)
}

// account records busy time and the trace segment for a finished task.
func (r *runner) account(w *worker, ts *taskRun, dur sim.Time) {
	r.res.BusyTime += dur
	if r.timeline != nil {
		r.timeline.Add(trace.Segment{
			Thread: w.id,
			Start:  ts.start,
			End:    ts.start + dur,
			Label:  fmt.Sprintf("%s%d.%d", ts.task.Kind, ts.task.Phase, ts.task.Pair),
			Memory: ts.task.Kind.IsMemory(),
		})
	}
}

// taskDone advances the phase bookkeeping and re-dispatches workers.
func (r *runner) taskDone(w *worker) {
	r.phaseRemaining--
	w.idle = true
	if r.phaseRemaining == 0 && len(r.readyMem) == r.memHead && len(r.readyCompute) == 0 {
		r.res.PhaseTimes = append(r.res.PhaseTimes, r.eng.Now()-r.phaseStart)
		r.res.PhaseMTL = append(r.res.PhaseMTL, r.th.MTL())
		r.enterPhase(r.phase + 1)
		return
	}
	r.dispatchAll()
}

func (r *runner) welfordTm(k int) *stats.Welford {
	wf := r.tmByK[k]
	if wf == nil {
		wf = &stats.Welford{}
		r.tmByK[k] = wf
	}
	return wf
}
