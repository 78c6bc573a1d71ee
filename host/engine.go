package host

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
	"memthrottle/internal/stats"
)

// This file is the runtime's one dispatch core (see the package
// comment): per-domain queues, the batched admission pump, the worker
// loop and task execution. Both kinds of session run on it — a Serve
// session streams pairs in through Submit, a Run session installs a
// whole phase up front and waits for it. A scatter stage is admitted
// through the gate a second time. Workers spawn on demand up to
// Config.Workers and exit when their session ends; everything else a
// session needs lives in an arena the runtime reuses, so back-to-back
// Run phases allocate next to nothing.

// servJob is one pair's lifecycle record. The user's task functions are
// stored as given, indexed by stage (one of each plain/error pair is
// set). Serve sessions draw records from a preallocated block pool and
// recycle them through the free ring; a Run session fills one record
// per pair in its arena.
type servJob struct {
	fn  [3]func()
	fnE [3]func() error

	seq     int64 // pair index (Run) or submission sequence number (Serve)
	dom     int32
	class   int32
	scatter bool // true: the scatter task is the next admission

	enqNs   int64 // Submit time, ns since session start (Serve only)
	admitNs int64 // first gate admission, ns since session start (Serve only)
}

// Task stages, in execution order.
const (
	stageMemory = iota
	stageCompute
	stageScatter
)

var stageNames = [...]string{"memory", "compute", "scatter"}

// fill loads a validated pair into j.
func (j *servJob) fill(p *Pair, seq int64, dom int) {
	*j = servJob{
		fn:  [3]func(){p.Memory, p.Compute, p.Scatter},
		fnE: [3]func() error{p.MemoryErr, p.ComputeErr, p.ScatterErr},
		seq: seq, dom: int32(dom), class: int32(p.Class),
	}
}

// servList is an unbounded mutex FIFO with an atomic count that keeps
// the empty case off the lock.
type servList struct {
	n    atomic.Int64
	mu   sync.Mutex
	jobs []*servJob
	head int
}

func (l *servList) put(j *servJob) {
	l.mu.Lock()
	l.jobs = append(l.jobs, j)
	l.n.Add(1)
	l.mu.Unlock()
}

func (l *servList) take() *servJob {
	if l.n.Load() == 0 {
		return nil
	}
	l.mu.Lock()
	var j *servJob
	if l.head < len(l.jobs) {
		j = l.jobs[l.head]
		l.jobs[l.head] = nil
		l.head++
		if l.head == len(l.jobs) {
			l.jobs = l.jobs[:0]
			l.head = 0
		}
		l.n.Add(-1)
	}
	l.mu.Unlock()
	return j
}

// domainState is one memory domain's queues. pend is the bounded Serve
// ingress (Submit pushes, the pump pops). backlog is the unbounded FIFO
// admitted ahead of it: a Run session's phase, installed in submission
// order. scat holds jobs between compute and scatter. held[c] holds, in
// arrival order, the jobs of traffic class c that found the class at
// its limit (allocated only for class-aware controllers; heldN counts
// them all). The pump drains scat, then backlog, then pend into
// admitted, whose occupancy the gate bounds: it is sized past
// Config.Workers and never legitimately fills (spills counts the times
// it did).
//
// Layout: every pump loads both lists' counts and every take or put
// writes a count and a lock, so each list sits on its own line, off the
// read-mostly ring pointers and counts, and the stride is a line
// multiple so neighbouring domains never share one.
// TestLayoutDomainState pins it.
type domainState struct {
	pend, admitted *mpmcRing
	held           []servList
	spills, heldN  atomic.Int64
	_              [24]byte
	backlog        servList
	_              [16]byte
	scat           servList
}

// latShard is one worker's latency histograms (Serve sessions only),
// merged by Drain after the workers exit.
type latShard struct {
	queue, service stats.LatencyHist
}

// worker is one worker goroutine's slot state, allocated when its slot
// first spawns and reused by later sessions. park is written
// by the goroutines that wake the worker (under the lot lock); every
// field past the pad is written only by the owner, so an unparker never
// invalidates the owner's counters. The counters are merged into Stats
// at the end of a Run; they are atomic because the merge may read while
// a task wedged past an abort is still accounting.
// TestLayoutWorker pins the split.
type worker struct {
	park parker
	_    [48]byte

	slot, home int
	spinNs     int64     // EWMA idle gap, drives the pre-park spin budget
	tcNs       int64     // EWMA compute-task time, votes on Server.longTc
	hist       *latShard // allocated by the first Serve session to spawn the slot

	sumTm, nTm atomic.Int64 // summed memory-task ns and count
	sumTc, nTc atomic.Int64 // summed compute-task ns and count
	parks      atomic.Int64 // blocking park events
	idleNs     atomic.Int64 // blocked-park time
	doms       []domShard
	_          [16]byte
}

// reset zeroes the worker's counters for a new session.
func (w *worker) reset() {
	for _, c := range []*atomic.Int64{&w.sumTm, &w.nTm, &w.sumTc, &w.nTc, &w.parks, &w.idleNs} {
		c.Store(0)
	}
	for d := range w.doms {
		w.doms[d].local.Store(0)
		w.doms[d].remote.Store(0)
	}
}

// arena is the memory one session works in: per-domain queues, the
// worker slots and the parking lot, the Run job records, the stall
// registry and, once a Serve session needed them, the ingress rings
// and block pool. A session borrows the runtime's idle arena and hands
// it back when it ends cleanly. An aborted Run's arena stays with the
// tasks still wedged in it and the next session builds a fresh one.
type arena struct {
	doms    []domainState
	workers []atomic.Pointer[worker] // built on a slot's first spawn
	lot     lot
	spawned atomic.Int32 // worker slots claimed by the current session
	running atomic.Int64 // worker goroutines not yet exited
	jobs    []servJob    // Run records, one per pair
	flight  []flightRec  // stall-watchdog registry (StallTimeout > 0)

	queueCap int       // Serve ingress size per domain (0: never served)
	free     *mpmcRing // Serve block pool
}

func newArena(cfg Config, classes bool) *arena {
	a := &arena{
		doms:    make([]domainState, cfg.Domains),
		workers: make([]atomic.Pointer[worker], cfg.Workers),
	}
	admitCap := ceilPow2(cfg.Workers + 1)
	for d := range a.doms {
		a.doms[d].admitted = newMPMCRing(admitCap)
		a.doms[d].pend = newMPMCRing(2) // empty until a Serve session sizes it
		if classes {
			a.doms[d].held = make([]servList, core.MaxClasses)
		}
	}
	if cfg.StallTimeout > 0 {
		a.flight = make([]flightRec, cfg.Workers)
	}
	return a
}

// sizeIngress (re)builds the Serve ingress when the queue size changes.
// The block pool covers every place a job can rest: the pending rings,
// the admitted rings, and the scatter lists plus the workers' hands
// (both bounded by gate occupancy and the worker count).
func (a *arena) sizeIngress(queue int) {
	queueCap := ceilPow2(queue)
	if queueCap == a.queueCap {
		return
	}
	a.queueCap = queueCap
	for d := range a.doms {
		a.doms[d].pend = newMPMCRing(queueCap)
	}
	nd := len(a.doms)
	total := nd*queueCap + nd*len(a.doms[0].admitted.slots) + 2*(len(a.workers)+1)
	blocks := make([]servJob, total)
	a.free = newMPMCRing(ceilPow2(total))
	for i := range blocks {
		a.free.push(&blocks[i])
	}
}

// quiesce waits until the arena's worker goroutines have exited.
func (a *arena) quiesce() {
	for a.running.Load() > 0 {
		runtime.Gosched()
	}
}

// Server is a live dispatch session. Serve returns one for streaming;
// Run drives one internally as a closed loop.
type Server struct {
	rt *Runtime
	*arena
	sc      ServeConfig
	run     bool // a Run session: aborts on failure, records no latencies
	start   time.Time
	spinMax int64 // concurrent pre-park spinner cap (see spin.go)
	drained chan struct{}

	// The session flags are set once and loaded on every dispatch step,
	// so they share the read-only line above, a full line away from the
	// counters every job updates.
	draining atomic.Bool
	done     atomic.Bool // every job retired, or a Run aborted
	aborted  atomic.Bool
	longTc   atomic.Bool // compute tasks outlast a wakeup (see exec)
	_        [64]byte

	seq      atomic.Int64
	inflight atomic.Int64
	downOnce sync.Once

	submitted, completed, failed atomic.Int64
	dropped, rejected            atomic.Int64
	retries, recovered           atomic.Int64
	admitBatches, admittedJobs   atomic.Int64
	blacklisted                  atomic.Int64

	// Stall-watchdog bookkeeping (Config.StallTimeout > 0 only).
	watch       bool
	stallMu     sync.Mutex
	stalls      int64
	stalledSeqs []int64
	degraded    bool
	rearms      int64

	// A Run session's outcome: its first terminal task failure, or the
	// expiry of its context.
	errMu     sync.Mutex
	err       error
	cancelled bool

	// blockMu/blockCond park ShedBlock submitters; blockWaiters keeps
	// the signal off the completion hot path when nobody waits.
	blockMu      sync.Mutex
	blockCond    sync.Cond
	blockWaiters atomic.Int64

	statsOnce sync.Once
	final     *latShard // merged latency shards, set by the first finished Drain
}

// open starts a session on arena a. The caller holds the runtime's
// busy flag.
func (r *Runtime) open(a *arena, sc ServeConfig, run bool) *Server {
	for i := range a.workers[:a.spawned.Load()] {
		a.workers[i].Load().reset()
	}
	a.spawned.Store(0)
	for d := range a.doms {
		a.doms[d].spills.Store(0)
	}
	s := &Server{
		rt:      r,
		arena:   a,
		sc:      sc,
		run:     run,
		start:   time.Now(),
		spinMax: spinnerCap(),
		drained: make(chan struct{}),
		watch:   r.cfg.StallTimeout > 0,
	}
	s.blockCond.L = &s.blockMu
	r.memPeak.Store(r.memActive.Load())
	for d := range r.gates {
		r.gates[d].resetPeak()
	}
	r.session.Store(s)
	if s.watch {
		go s.watchdog()
	}
	return s
}

// close releases the runtime for the next session and, unless the
// session aborted, hands its arena back for reuse.
func (s *Server) close() {
	r := s.rt
	r.session.CompareAndSwap(s, nil)
	if !s.aborted.Load() {
		r.idle.Store(s.arena)
	}
	r.busy.Store(false)
}

// nowNs is the session clock: nanoseconds since the session opened.
func (s *Server) nowNs() int64 { return time.Since(s.start).Nanoseconds() }

// pump is batched admission for domain d: claim a run of gate slots in
// one CAS, move that many queued jobs (in next's order) into the
// admitted ring, and wake the matching number of workers under one lot
// lock. Concurrent pumps are safe: slots are claimed before jobs are
// taken, and unclaimable leftovers are handed back.
//
// Parked workers are woken for every admitted job, but fresh workers
// are spawned only for jobs nobody will come for: self reports that
// the caller is a worker going straight back to the admitted rings,
// which claims one admitted job, so a phase of tiny tasks runs on
// about as many goroutines as it has gate slots instead of the whole
// pool. pump reports whether that claim is still unused.
func (s *Server) pump(d int, self bool) bool {
	sd := &s.doms[d]
	batch := int64(s.sc.AdmitBatch)
	for !s.aborted.Load() {
		pending := sd.scat.n.Load() + sd.backlog.n.Load() + sd.heldN.Load() + int64(sd.pend.length())
		if pending == 0 {
			break
		}
		want := min(pending, batch)
		n := s.rt.admit(d, want)
		if n == 0 {
			break
		}
		var moved int64
		var now int64
		if !s.run {
			now = s.nowNs()
		}
		for moved < n {
			j := s.next(sd)
			if j == nil {
				break
			}
			if j.admitNs == 0 {
				j.admitNs = now
			}
			if !sd.admitted.push(j) {
				// Only a racing pop's handoff makes the admitted ring
				// report full: recycle through the scatter list.
				s.rt.releaseClass(int(j.class))
				sd.scat.put(j)
				sd.spills.Add(1)
				break
			}
			// The issue signal is emitted by the worker that executes
			// the admission (exec): pump runs on arbitrary goroutines
			// with no shard to attribute it to.
			moved++
		}
		if moved < n {
			s.rt.release(d, n-moved)
		}
		if moved > 0 {
			s.admitBatches.Add(1)
			s.admittedJobs.Add(moved)
			if s.blockWaiters.Load() > 0 {
				// Space opened in pend; wake blocked submitters.
				s.blockMu.Lock()
				s.blockCond.Broadcast()
				s.blockMu.Unlock()
			}
			spawn := moved - int64(s.lot.unparkN(int(moved)))
			if self && spawn > 0 {
				spawn--
				self = false
			}
			for ; spawn > 0; spawn-- {
				s.spawnWorker()
			}
			if s.aborted.Load() {
				// A Run aborted while this pump held slots: the abort's
				// own discard may have run before the push.
				s.discard()
			}
		}
		if moved < want {
			break
		}
	}
	return self
}

// next dequeues domain sd's next admissible job with its class slot
// claimed: first the oldest held job of a class that has room again,
// then the scatter list, the backlog and the ingress. A job whose class
// is at its limit, or already has jobs held, joins the class's held
// list instead, so every queued job is looked at once however long a
// class stays capped, and a class's jobs keep their order.
func (s *Server) next(sd *domainState) *servJob {
	if sd.heldN.Load() > 0 {
		for c := range sd.held {
			h := &sd.held[c]
			if h.n.Load() == 0 || !s.rt.admitClass(c) {
				continue
			}
			if j := h.take(); j != nil {
				sd.heldN.Add(-1)
				return j
			}
			s.rt.releaseClass(c)
		}
	}
	for {
		j := sd.scat.take()
		if j == nil {
			j = sd.backlog.take()
		}
		if j == nil {
			j = sd.pend.pop()
		}
		if j == nil || sd.held == nil {
			return j
		}
		h := &sd.held[j.class]
		if h.n.Load() == 0 && s.rt.admitClass(int(j.class)) {
			return j
		}
		h.put(j)
		sd.heldN.Add(1)
	}
}

// pumpAll pumps every domain (an MTL raise can admit work anywhere)
// for a caller that is not about to take admitted work.
func (s *Server) pumpAll() {
	for d := range s.doms {
		s.pump(d, false)
	}
}

// spawnWorker starts one more worker if the pool has room and the
// session is live. The running count rises before the done check, so
// a goroutine spawned past the end of the session is always waited
// for by quiesce.
func (s *Server) spawnWorker() {
	s.running.Add(1)
	for {
		n := s.spawned.Load()
		if int(n) >= len(s.workers) || s.done.Load() {
			s.running.Add(-1)
			return
		}
		if s.spawned.CompareAndSwap(n, n+1) {
			w := s.workers[n].Load()
			if w == nil {
				nd := len(s.doms)
				w = &worker{slot: int(n), home: int(n) % nd, doms: make([]domShard, nd)}
				w.park.token = make(chan struct{}, 1)
				s.workers[n].Store(w)
			}
			if !s.run {
				if w.hist == nil {
					w.hist = new(latShard)
				} else {
					*w.hist = latShard{}
				}
			}
			go s.work(w)
			return
		}
	}
}

// closeDrained ends the session, exactly once: Drain and RunContext are
// released and every parked worker wakes to exit.
func (s *Server) closeDrained() {
	s.downOnce.Do(func() {
		s.done.Store(true)
		close(s.drained)
		s.lot.unparkAll()
	})
}

// stop records a Run session's outcome and aborts it: its first
// terminal task failure or, cancelled, the expiry of its context (a
// no-op once the session ended).
func (s *Server) stop(err error, cancelled bool) {
	s.errMu.Lock()
	if s.err == nil && !(cancelled && s.done.Load()) {
		s.err, s.cancelled = err, cancelled
	}
	s.errMu.Unlock()
	s.abort()
}

// abort ends a Run session early: admitted jobs hand their slots back,
// queued ones are dropped with the arena, and the session closes. Tasks
// already executing keep their slots until they return.
func (s *Server) abort() {
	if s.aborted.CompareAndSwap(false, true) {
		s.discard()
		s.closeDrained()
	}
}

// discard empties the admitted rings of an aborted session, returning
// each job's gate and class slots.
func (s *Server) discard() {
	for d := range s.doms {
		for j := s.doms[d].admitted.pop(); j != nil; j = s.doms[d].admitted.pop() {
			s.rt.release(d, 1)
			s.rt.releaseClass(int(j.class))
		}
	}
}

// work is the worker loop: take admitted jobs (home domain first), pump
// when the rings run dry, park when there is truly nothing, exit when
// the session ends.
func (s *Server) work(w *worker) {
	defer s.running.Add(-1)
	for !s.done.Load() {
		j := s.take(w)
		if j == nil {
			if j = s.parkTillWork(w); j == nil {
				return
			}
		}
		s.exec(w, j)
	}
}

// take scans the admitted rings home-first, pumping once on a miss
// (the pump may admit work this very worker then takes).
func (s *Server) take(w *worker) *servJob {
	nd := len(s.doms)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < nd; i++ {
			d := (w.home + i) % nd
			if j := s.doms[d].admitted.pop(); j != nil {
				if d == w.home {
					w.doms[d].local.Add(1)
				} else {
					w.doms[d].remote.Add(1)
				}
				return j
			}
		}
		if pass == 0 {
			self := true
			for d := range s.doms {
				self = s.pump(d, self)
			}
		}
	}
	return nil
}

// parkTillWork idles w until work arrives or the session ends: enqueue
// in the lot, re-scan (closing the lost-wakeup window — any job
// admitted after that scan finds this worker parked and wakes it), then
// spin for the adaptive budget before blocking on the park token (see
// spin.go). The spin runs while enqueued, so the targeted unpark covers
// it unchanged; a token consumed mid-spin is exactly a wakeup. Only the
// blocking park counts as a park, and its duration is the worker's idle
// time.
func (s *Server) parkTillWork(w *worker) *servJob {
	for {
		s.lot.enqueue(&w.park)
		if s.done.Load() {
			s.lot.cancel(&w.park)
			return nil
		}
		if j := s.take(w); j != nil {
			s.lot.cancel(&w.park)
			return j
		}
		if budget := spinBudgetNs(w.spinNs); budget > 0 && s.lot.beginSpin(s.spinMax) {
			t0 := time.Now()
			woken := false
			for i := 1; !woken && time.Since(t0).Nanoseconds() < budget; i++ {
				select {
				case <-w.park.token:
					woken = true
				default:
				}
				if woken || s.done.Load() || s.admittedAny() {
					break
				}
				if i%spinYieldEvery == 0 {
					runtime.Gosched()
				}
			}
			s.lot.endSpin()
			gap := time.Since(t0).Nanoseconds()
			if woken {
				// Token consumed mid-spin — this was the wakeup.
				w.spinNs = foldIdleGap(w.spinNs, gap)
				if s.done.Load() {
					return nil
				}
				if j := s.take(w); j != nil {
					return j
				}
				continue
			}
			if s.done.Load() {
				s.lot.cancel(&w.park)
				return nil
			}
			if j := s.take(w); j != nil {
				s.lot.cancel(&w.park)
				w.spinNs = foldIdleGap(w.spinNs, gap)
				return j
			}
			// Budget spent with nothing admitted: fall through to the
			// blocking park (still enqueued, so no wakeup was lost).
		}
		w.parks.Add(1)
		t0 := time.Now()
		<-w.park.token
		gap := time.Since(t0).Nanoseconds()
		w.idleNs.Add(gap)
		w.spinNs = foldIdleGap(w.spinNs, gap)
		if s.done.Load() {
			return nil
		}
		if j := s.take(w); j != nil {
			return j
		}
	}
}

// admittedAny reports whether any admitted ring holds a job (racy; the
// spin's exit probe).
func (s *Server) admittedAny() bool {
	for d := range s.doms {
		if s.doms[d].admitted.length() > 0 {
			return true
		}
	}
	return false
}

// exec runs one admitted job stage. Gather: run the memory task under
// the held slot, release and pump, then run compute on the same worker
// and either finish or queue the scatter. Scatter: run under the held
// slot, release, finish. A Run that aborted while the task ran counts
// the finished task in its Stats until it returns them, but starts
// nothing after it.
func (s *Server) exec(w *worker, j *servJob) {
	d, c := int(j.dom), int(j.class)
	// One issue signal per gate admission (gather and scatter stages
	// are each admitted once), attributed to this worker's shard.
	s.rt.noteIssue(w.slot, c)
	if j.scatter {
		_, _, err := s.runTask(w, j, stageScatter)
		s.release(d, c, true)
		s.finishJob(w, j, err)
		return
	}
	if !s.run {
		w.hist.queue.Record(time.Duration(j.admitNs - j.enqNs))
	}
	tm, _, err := s.runTask(w, j, stageMemory)
	// The freed slot admits the next job. If this worker's compute will
	// be over before a woken worker could arrive, it claims that job
	// itself; otherwise the job gets its own worker, and its memory task
	// overlaps this compute.
	s.release(d, c, !s.longTc.Load())
	if err != nil {
		s.finishJob(w, j, err)
		return
	}
	w.sumTm.Add(int64(tm))
	w.nTm.Add(1)
	if s.aborted.Load() {
		return
	}
	tc, end, err := s.runTask(w, j, stageCompute)
	if err != nil {
		s.finishJob(w, j, err)
		return
	}
	w.tcNs = (3*w.tcNs + int64(tc)) / 4
	if long := w.tcNs > claimMaxNs; long != s.longTc.Load() {
		s.longTc.Store(long)
	}
	w.sumTc.Add(int64(tc))
	w.nTc.Add(1)
	if s.aborted.Load() {
		return
	}
	if s.rt.adaptive {
		// A Fixed throttler ignores samples and its limit never moves,
		// so the controller lock is skipped.
		s.feedController(c, tm, tc, end)
	}
	if j.fn[stageScatter] != nil || j.fnE[stageScatter] != nil {
		j.scatter = true
		s.doms[d].scat.put(j)
		s.pump(d, true)
		return
	}
	s.finishJob(w, j, nil)
}

// claimMaxNs is the compute-task time below which a worker claims the
// job its memory slot's release admits instead of waking another
// worker for it: about the cost of a wakeup (a lot lock, a channel
// send and, on an idle processor, an OS thread wakeup).
const claimMaxNs = 16 << 10

// release returns a finished memory-class task's gate and class slots
// and pumps the freed slot (self as in pump). A task that outlived its
// aborted Run pumps the runtime's live session instead: the slot it
// held may be the one that session's queued work is waiting for.
func (s *Server) release(d, c int, self bool) {
	s.rt.release(d, 1)
	s.rt.releaseClass(c)
	if !s.aborted.Load() {
		s.pump(d, self)
	} else if cur := s.rt.session.Load(); cur != nil {
		cur.pump(d, false)
	}
}

// feedController delivers one pair sample under ctrlMu (end is the
// compute task's end on the session clock), mirrors the possibly-moved
// MTL into every gate, and pumps every domain when the limit rose (new
// headroom can admit queued jobs anywhere).
func (s *Server) feedController(class int, tm, tc time.Duration, end int64) {
	r := s.rt
	r.ctrlMu.Lock()
	r.th.OnPair(core.PairSample{
		Tm:    core.Time(tm.Seconds()),
		Tc:    core.Time(tc.Seconds()),
		Now:   core.Time(time.Duration(end).Seconds()),
		Class: class,
	})
	old := r.gates[0].limit.Load()
	limit := int64(r.th.MTL())
	r.setLimit(limit)
	r.ctrlMu.Unlock()
	if limit > old {
		s.pumpAll()
	}
}

// runTask executes one stage of j under the retry policy with panic
// recovery, returning the last attempt's duration and its end on the
// session clock (one monotonic read, cheaper than a time.Now). Each
// attempt registers with the stall watchdog.
func (s *Server) runTask(w *worker, j *servJob, stage int) (time.Duration, int64, error) {
	fn, fnE := j.fn[stage], j.fnE[stage]
	var (
		rng     *rand.Rand
		err     error
		t0, end int64
		attempt = 1
	)
	for ; ; attempt++ {
		if s.watch {
			s.flight[w.slot].set(j.seq, int(j.class))
		}
		t0 = s.nowNs()
		err = runOnce(fn, fnE, j.seq, stage)
		end = s.nowNs()
		if err == nil || attempt >= s.rt.cfg.Retry.MaxAttempts || !s.backoff(w.slot, int(j.class), attempt, &rng) {
			break
		}
	}
	if s.watch {
		s.flight[w.slot].clear()
	}
	if attempt > 1 {
		s.retries.Add(int64(attempt - 1))
		if err == nil {
			s.recovered.Add(1)
		} else {
			err = fmt.Errorf("%w (after %d attempts)", err, attempt)
		}
	}
	return time.Duration(end - t0), end, err
}

// backoff sleeps before retry number attempt, reporting false (give up)
// when the session ended first — only an aborted Run ends with a job in
// flight.
func (s *Server) backoff(slot, class, attempt int, rng **rand.Rand) bool {
	if s.done.Load() {
		return false
	}
	s.rt.noteRetry(slot, class)
	pol := s.rt.cfg.Retry
	if *rng == nil {
		// Allocated only on the retry path. Decorrelated per worker,
		// reproducible per seed.
		*rng = rand.New(rand.NewSource(pol.Seed + int64(slot)*0x9E3779B9 + 1))
	}
	t := time.NewTimer(pol.delay(attempt, *rng))
	select {
	case <-t.C:
		return true
	case <-s.drained:
		t.Stop()
		return false
	}
}

// runOnce executes one task attempt, converting a returned error or a
// panic into a decorated error.
func runOnce(fn func(), fnE func() error, seq int64, stage int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("host: pair %d %s task panicked: %v", seq, stageNames[stage], rec)
		}
	}()
	if fnE != nil {
		if taskErr := fnE(); taskErr != nil {
			return fmt.Errorf("host: pair %d %s task failed: %w", seq, stageNames[stage], taskErr)
		}
		return nil
	}
	fn()
	return nil
}

// finishJob retires one job: count it (a Run session aborts on the
// first failure), record its service latency and recycle its block
// (Serve), and end the session when this was the last inflight job of
// a draining one.
func (s *Server) finishJob(w *worker, j *servJob, err error) {
	if err != nil {
		s.failed.Add(1)
		if s.run {
			s.stop(err, false)
		}
	} else {
		s.completed.Add(1)
		if !s.run {
			w.hist.service.Record(time.Duration(s.nowNs() - j.admitNs))
		}
	}
	if !s.run {
		*j = servJob{}
		for !s.free.push(j) {
			runtime.Gosched()
		}
		if s.blockWaiters.Load() > 0 {
			s.blockMu.Lock()
			s.blockCond.Broadcast()
			s.blockMu.Unlock()
		}
	}
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.closeDrained()
	}
}
