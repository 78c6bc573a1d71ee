package mem

import (
	"fmt"

	"memthrottle/internal/sim"
)

// This file is the parallel-DES harness over sharded memory domains:
// every domain of a DomainSet runs its own DRAM System on its own
// timing-wheel engine, and the engines advance concurrently in
// conservative lookahead windows (sim.Group window mode). The model
// supplying the lookahead is the cross-domain dispatch latency: a task
// finishing in domain d hands its successor to domain (d+1) mod D only
// after a fixed dispatch delay, so inside any window narrower than that
// delay the domains are causally independent and may simulate in
// parallel.
//
// The serial twin runs the identical model — same systems, same
// chains, same dispatch rule — on one engine. Cross-domain arrivals
// land at identical absolute times either way, and within a domain the
// event chain is a pure function of its arrival times, so the two
// modes produce identical per-domain completion traces
// (TestDomainSimParallelMatchesSerial pins this).

// DomainSimSpec configures one sharded-domain simulation.
type DomainSimSpec struct {
	// Chains is the number of closed-loop dispatch chains started in
	// each domain; every chain keeps exactly one memory task in flight
	// somewhere in the machine.
	Chains int
	// Tasks is the number of tasks each chain executes in total.
	Tasks int
	// Footprint is the bytes streamed per task.
	Footprint int
	// Dispatch is the cross-domain hand-off latency — the lookahead
	// window of the parallel run. Must be positive.
	Dispatch sim.Time
	// Parallel selects the window-group engines; false runs the same
	// model serially on one engine.
	Parallel bool
}

// Validate reports a spec error, if any.
func (s DomainSimSpec) Validate() error {
	if s.Chains < 1 || s.Tasks < 1 {
		return fmt.Errorf("mem: DomainSimSpec needs >= 1 chain and task, got %d x %d", s.Chains, s.Tasks)
	}
	if s.Footprint < 1 {
		return fmt.Errorf("mem: DomainSimSpec footprint = %d, want >= 1", s.Footprint)
	}
	if s.Dispatch <= 0 {
		return fmt.Errorf("mem: DomainSimSpec dispatch latency = %v, want > 0", s.Dispatch)
	}
	return nil
}

// DomainSimResult is the deterministic outcome of one simulation.
type DomainSimResult struct {
	// Completions[d] holds the completion instants of every task that
	// ran in domain d, in completion order.
	Completions [][]sim.Time
	// Final is the virtual time the last task completed.
	Final sim.Time
}

// domainChain is one dispatch chain's state, carried as the event
// argument through the allocation-free scheduling path.
type domainChain struct {
	ds        *domainSim
	id        int // global chain index (region base)
	home      int // domain executing the current task
	remaining int
}

// domainSim is the live harness state.
type domainSim struct {
	spec    DomainSimSpec
	engines []*sim.Engine
	systems []*System
	group   *sim.Group
	res     DomainSimResult
	startFn func(any)
}

// Simulate runs the sharded-domain workload over the set's domains and
// returns the per-domain completion traces. With spec.Parallel the
// domains advance concurrently under the dispatch-latency lookahead;
// otherwise the identical model runs on a single engine. Both modes
// are deterministic and produce the same result.
func (ds DomainSet) Simulate(spec DomainSimSpec) (DomainSimResult, error) {
	if err := ds.Validate(); err != nil {
		return DomainSimResult{}, err
	}
	if err := spec.Validate(); err != nil {
		return DomainSimResult{}, err
	}
	for d, cfg := range ds.Configs {
		if spec.Footprint/cfg.LineBytes < 1 {
			return DomainSimResult{}, fmt.Errorf("mem: domain %d: footprint %d smaller than one line (%d)", d, spec.Footprint, cfg.LineBytes)
		}
	}
	nd := len(ds.Configs)
	h := &domainSim{spec: spec}
	h.startFn = h.startTask
	if spec.Parallel && nd > 1 {
		h.engines = make([]*sim.Engine, nd)
		for d := range h.engines {
			h.engines[d] = newEngine(ds.Configs[d])
		}
		h.group = sim.NewWindowGroup(h.engines...)
	} else {
		eng := newEngine(ds.Configs[0])
		h.engines = make([]*sim.Engine, nd)
		for d := range h.engines {
			h.engines[d] = eng
		}
	}
	h.systems = make([]*System, nd)
	for d := range h.systems {
		h.systems[d] = NewSystem(h.engines[d], ds.Configs[d])
	}
	h.res.Completions = make([][]sim.Time, nd)

	// Chains launch at staggered instants (one dispatch latency apart
	// per in-domain chain index) so the initial wavefront is not one
	// degenerate all-domains tie.
	for d := 0; d < nd; d++ {
		for c := 0; c < spec.Chains; c++ {
			ch := &domainChain{ds: h, id: d*spec.Chains + c, home: d, remaining: spec.Tasks}
			h.engines[d].AtFunc(sim.Time(c)*spec.Dispatch, h.startFn, ch)
		}
	}
	if h.group != nil {
		h.res.Final = h.group.RunWindows(spec.Dispatch)
	} else {
		h.res.Final = h.engines[0].Run()
	}
	return h.res, nil
}

// region returns the task's disjoint row-aligned address region in its
// current home domain, keyed by (chain, task ordinal) exactly like the
// calibration harness keys (worker, task) — globally unique, so chains
// migrating across domains never collide.
func (h *domainSim) region(ch *domainChain) uint64 {
	cfg := h.systems[ch.home].Config()
	lines := h.spec.Footprint / cfg.LineBytes
	linesPerRow := cfg.RowBytes / cfg.LineBytes
	rowsPerTask := (lines + linesPerRow - 1) / linesPerRow
	idx := uint64(ch.id*h.spec.Tasks + (h.spec.Tasks - ch.remaining))
	return idx * uint64(rowsPerTask+1) * uint64(cfg.RowBytes)
}

// startTask begins the chain's next task on its current home domain.
func (h *domainSim) startTask(x any) {
	ch := x.(*domainChain)
	sys := h.systems[ch.home]
	lines := h.spec.Footprint / sys.Config().LineBytes
	sys.StartStream(h.region(ch), lines, func(finished sim.Time) {
		h.finishTask(ch, finished)
	})
}

// finishTask records the completion and dispatches the chain's next
// task to the neighbouring domain after the dispatch latency — via a
// window-group Post in parallel mode, a plain After otherwise.
func (h *domainSim) finishTask(ch *domainChain, finished sim.Time) {
	d := ch.home
	h.res.Completions[d] = append(h.res.Completions[d], finished)
	ch.remaining--
	if ch.remaining == 0 {
		return
	}
	next := (d + 1) % len(h.systems)
	ch.home = next
	at := finished + h.spec.Dispatch
	if h.group != nil {
		h.group.Post(d, next, at, h.startFn, ch)
	} else {
		h.engines[next].AtFunc(at, h.startFn, ch)
	}
}
