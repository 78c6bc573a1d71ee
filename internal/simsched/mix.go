package simsched

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// StreamShapes is the per-job shape contract MixRun consumes,
// satisfied structurally by internal/workload's Steady, Flood and
// PhaseFlip generators (declared here, like Arrivals, to avoid an
// import cycle).
type StreamShapes interface {
	// NextShape returns the next job's gather footprint (bytes) and
	// solo compute duration (seconds).
	NextShape() (gather, compute float64)
	// Name identifies the generator in reports.
	Name() string
}

// Stream is one traffic class of a mixed open-loop run: its own
// arrival process, job-shape generator, and class tag the throttler
// sees on every sample.
type Stream struct {
	// Class tags the stream's jobs (0..core.MaxClasses-1). The victim
	// is class 0 by convention.
	Class int
	// Arrivals generates inter-arrival gaps (seconds of virtual time).
	Arrivals Arrivals
	// Shapes generates per-job gather/compute shapes.
	Shapes StreamShapes
	// Jobs is the number of arrivals this stream generates.
	Jobs int
}

// MixSpec describes one adversarial serving run: several class-tagged
// streams share the bounded queue, the machine, and the throttler.
type MixSpec struct {
	Streams []Stream
	// Queue bounds the shared pending queue; arrivals finding it full
	// are shed. Queue <= 0 leaves it unbounded.
	Queue int
}

// Validate reports a spec error, if any.
func (s MixSpec) Validate() error {
	if len(s.Streams) == 0 {
		return fmt.Errorf("simsched: MixSpec without streams")
	}
	for i, st := range s.Streams {
		if st.Class < 0 || st.Class >= core.MaxClasses {
			return fmt.Errorf("simsched: stream %d class = %d, want 0..%d", i, st.Class, core.MaxClasses-1)
		}
		if st.Arrivals == nil {
			return fmt.Errorf("simsched: stream %d without an arrival process", i)
		}
		if st.Shapes == nil {
			return fmt.Errorf("simsched: stream %d without a shape generator", i)
		}
		if st.Jobs < 1 {
			return fmt.Errorf("simsched: stream %d Jobs = %d, want >= 1", i, st.Jobs)
		}
	}
	return nil
}

// ClassOutcome summarises one traffic class of a mixed run.
type ClassOutcome struct {
	Arrived   int
	Completed int
	Dropped   int

	// Queue is admission-wait latency, Sojourn end-to-end
	// arrival-to-completion latency — the victim's Sojourn p99 is the
	// robustness experiment's headline number.
	Queue   stats.LatencyHist
	Sojourn stats.LatencyHist
}

// MixResult summarises one adversarial serving run.
type MixResult struct {
	Policy string

	Makespan sim.Time
	// Goodput is total completions per second of makespan.
	Goodput float64

	// ByClass is indexed by class id, length max class + 1.
	ByClass []ClassOutcome

	PeakQueue     int
	PeakActiveMem int // peak concurrent memory tasks, all domains
	FinalMTL      int
	MTLDecisions  []int
	// ContainedAt is the virtual-time instant the throttler first
	// demoted (blacklisted) any class, 0 if it never did — the
	// time-to-contain metric.
	ContainedAt sim.Time
}

// mixTask is one in-flight job of the mixed simulation.
type mixTask struct {
	class   int
	dom     int
	bytes   float64
	work    sim.Time
	arrived sim.Time
	admit   sim.Time
	gatherT sim.Time
}

// mixer is the live state of one MixRun.
type mixer struct {
	rig
	spec MixSpec
	lim  core.ClassLimiter // th's class-limit view, nil if class-blind
	obs  core.Observer     // th's signal sink, nil if none

	queue       []*mixTask
	head        int
	activeClass [core.MaxClasses]int
	generated   []int // per stream
	inflight    int
	seq         int

	res MixResult
}

// MixRun executes one mixed-stream open-loop serving simulation: every
// job carries its stream's class, class-aware throttlers get their
// per-class signals, and per-class limits and blacklists apply at
// admission. A job's home domain is its enqueue index (jobs admitted
// to the queue, not counting shed arrivals) modulo the domain count.
// The throttler must be freshly constructed per run. Each call owns a
// private engine and RNGs, so independent runs may execute
// concurrently, and everything is seeded, so results are bit-identical
// for identical inputs. Panics on invalid configuration or spec.
func MixRun(cfg Config, spec MixSpec, th core.Throttler) MixResult {
	runCount.Add(1)
	m := &mixer{rig: newRig(cfg, th), spec: spec}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	m.lim, _ = th.(core.ClassLimiter)
	m.obs, _ = th.(core.Observer)
	maxClass := 0
	for _, st := range spec.Streams {
		if st.Class > maxClass {
			maxClass = st.Class
		}
	}
	m.res.ByClass = make([]ClassOutcome, maxClass+1)

	m.generated = make([]int, len(spec.Streams))
	for i := range spec.Streams {
		i := i
		m.eng.After(sim.Time(spec.Streams[i].Arrivals.Next()), func() { m.arrive(i) })
	}
	m.drain()

	if m.inflight != 0 || m.pending() != 0 {
		panic(fmt.Sprintf("simsched: mix deadlock — %d in flight, %d queued at drain",
			m.inflight, m.pending()))
	}
	m.res.Policy = th.Name()
	m.res.FinalMTL = th.MTL()
	m.res.MTLDecisions = decisions(th)
	completed := 0
	for _, c := range m.res.ByClass {
		completed += c.Completed
	}
	if m.res.Makespan > 0 {
		m.res.Goodput = float64(completed) / float64(m.res.Makespan)
	}
	return m.res
}

func (m *mixer) pending() int { return len(m.queue) - m.head }

// arrive admits or sheds one arrival of stream i and schedules the
// stream's next. Blacklisted classes are refused at ingress — the
// serve-admission half of demotion; anything already queued or in
// flight still drains under the class limit.
func (m *mixer) arrive(i int) {
	st := m.spec.Streams[i]
	now := m.eng.Now()
	m.res.ByClass[st.Class].Arrived++
	blacklisted := m.lim != nil && m.lim.Blacklisted(st.Class)
	if blacklisted || (m.spec.Queue > 0 && m.pending() >= m.spec.Queue) {
		m.res.ByClass[st.Class].Dropped++
	} else {
		g, c := st.Shapes.NextShape()
		t := &mixTask{
			class:   st.Class,
			dom:     m.seq % len(m.pools),
			bytes:   g * m.noise.Factor(),
			work:    sim.Time(c * m.noise.Factor()),
			arrived: now,
		}
		m.seq++
		m.queue = append(m.queue, t)
		if d := m.pending(); d > m.res.PeakQueue {
			m.res.PeakQueue = d
		}
		m.dispatchAll()
	}
	m.generated[i]++
	if m.generated[i] < st.Jobs {
		m.eng.After(sim.Time(st.Arrivals.Next()), func() { m.arrive(i) })
	}
}

// dispatchAll gives every idle worker a chance to admit a job, stopping
// at the first one left idle (see runner.dispatchAll).
func (m *mixer) dispatchAll() {
	for _, w := range m.workers {
		if w.idle && !m.dispatch(w) {
			return
		}
	}
}

// admissible reports whether t clears both the aggregate MTL gate and
// its class's limit. A blacklisted class reports an effective limit of
// 1 through ClassLimit — demotion to fully serialized execution.
func (m *mixer) admissible(t *mixTask, mtl int) bool {
	if m.activeMem[t.dom] >= mtl {
		return false
	}
	if m.lim != nil {
		if cl := m.lim.ClassLimit(t.class); cl > 0 && m.activeClass[t.class] >= cl {
			return false
		}
	}
	return true
}

// dispatch admits the oldest admissible pending job to w: the MTL gate
// is checked per home domain at dequeue, as the host serving path
// admits against its per-domain gates, with the class gate layered
// on. The worker carries the job end to end, gather under the
// admission slot and then compute, so a busy worker maps one-to-one
// onto an in-flight request. It reports whether w got a job.
func (m *mixer) dispatch(w *worker) bool {
	mtl := m.th.MTL()
	idx := -1
	if m.tokenFree(mtl) {
		for i := m.head; i < len(m.queue); i++ {
			if m.admissible(m.queue[i], mtl) {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		w.idle = true
		return false
	}
	var t *mixTask
	m.queue, m.head, t = takeAt(m.queue, m.head, idx)
	w.idle = false
	m.inflight++
	now := m.eng.Now()
	t.admit = now
	m.res.ByClass[t.class].Queue.RecordSeconds(float64(now - t.arrived))
	m.activeMem[t.dom]++
	m.activeClass[t.class]++
	if a := m.totalActiveMem(); a > m.res.PeakActiveMem {
		m.res.PeakActiveMem = a
	}
	if m.obs != nil {
		m.obs.OnSignal(t.class, core.SignalIssue)
	}
	m.llc.Reserve(t.bytes)
	m.pools[t.dom].Start(t.bytes, 1, func() { m.finishGather(w, t) })
	return true
}

func (m *mixer) totalActiveMem() int {
	n := 0
	for _, a := range m.activeMem {
		n += a
	}
	return n
}

// finishGather releases the admission slots and starts the compute
// half on the worker's core. A freed slot may admit a queued job on
// any idle worker, but not on w, still busy with t's compute.
func (m *mixer) finishGather(w *worker, t *mixTask) {
	t.gatherT = m.eng.Now() - t.admit
	m.activeMem[t.dom]--
	m.activeClass[t.class]--
	m.dispatchAll()
	m.startCompute(w, t.dom, t.bytes, t.work, func() { m.finishCompute(w, t) })
}

// finishCompute completes the job: record latencies, feed the
// throttler its class-tagged sample, track containment, free the
// worker.
func (m *mixer) finishCompute(w *worker, t *mixTask) {
	now := m.eng.Now()
	m.llc.Release(t.bytes)
	oc := &m.res.ByClass[t.class]
	oc.Completed++
	m.inflight--
	oc.Sojourn.RecordSeconds(float64(now - t.arrived))
	if now > m.res.Makespan {
		m.res.Makespan = now
	}
	m.th.OnPair(core.PairSample{Tm: t.gatherT, Tc: now - t.admit - t.gatherT, Now: now, Class: t.class})
	if m.res.ContainedAt == 0 && m.lim != nil {
		for c := range m.res.ByClass {
			if m.lim.Blacklisted(c) {
				m.res.ContainedAt = now
				break
			}
		}
	}

	free := func() {
		w.idle = true
		m.dispatch(w)
	}
	if m.th.Monitoring() && m.cfg.MonitorOverhead > 0 {
		m.eng.After(m.cfg.MonitorOverhead, free)
		return
	}
	free()
}
