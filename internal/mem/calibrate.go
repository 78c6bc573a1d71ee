package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memthrottle/internal/parallel"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// MeasureTaskTime runs k concurrent closed-loop streams of memory
// tasks through a fresh DRAM system and returns the steady-state mean
// task duration. Each stream performs tasksPerStream back-to-back
// tasks of footprint bytes over disjoint address regions; the first
// task of every stream is discarded as warm-up. This is the simulated
// analogue of the paper measuring Tm_k with gettimeofday() while MTL=k
// (§V): k is exactly the number of memory tasks in flight.
func MeasureTaskTime(cfg Config, k, tasksPerStream int, footprint int) (sim.Time, error) {
	if err := validateMeasure(cfg, k, tasksPerStream, footprint); err != nil {
		return 0, err
	}
	eng := newEngine(cfg)
	sys := NewSystem(eng, cfg)
	durations := measureStreams(eng, sys, k, tasksPerStream, footprint, nil)
	return sim.Time(stats.Mean(durations)), nil
}

// newEngine returns the event engine a DRAM simulation of cfg runs on:
// a timing wheel whose bucket is one line's data-bus occupancy
// (TBurst). DRAM events sit a few nanoseconds apart — in calibration
// half are due within 23 ns of being scheduled and nine in ten within
// 64 ns — so a wider bucket funnels most of them into the bucket
// already firing, where each pays a sorted insert. Fire order is
// (due, seq) whatever the tick, so results are bit-identical to the
// reference heap engine.
func newEngine(cfg Config) *sim.Engine { return sim.NewWheelTick(cfg.TBurst) }

// validateMeasure checks one measurement request's arguments.
func validateMeasure(cfg Config, k, tasksPerStream, footprint int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if k < 1 {
		return fmt.Errorf("mem: MeasureTaskTime k = %d, want >= 1", k)
	}
	if tasksPerStream < 2 {
		return fmt.Errorf("mem: MeasureTaskTime needs >= 2 tasks per stream for warm-up trimming, got %d", tasksPerStream)
	}
	if footprint/cfg.LineBytes < 1 {
		return fmt.Errorf("mem: footprint %d smaller than one line (%d)", footprint, cfg.LineBytes)
	}
	return nil
}

// measureStreams drives k closed-loop streams of tasksPerStream tasks
// each through sys and appends the post-warm-up task durations to
// durations, returning the grown slice. The engine must be at time
// zero with an empty queue and sys freshly built or Reset: given that,
// the event sequence — and therefore every measured duration — is a
// pure function of (sys.cfg, k, tasksPerStream, footprint), identical
// whether the underlying allocations are new or reused.
func measureStreams(eng *sim.Engine, sys *System, k, tasksPerStream, footprint int, durations []float64) []float64 {
	cfg := sys.Config()
	lines := footprint / cfg.LineBytes
	// Worker state machine: run task i, then task i+1, ...
	var launch func(worker, task int)
	linesPerRow := cfg.RowBytes / cfg.LineBytes
	rowsPerTask := (lines + linesPerRow - 1) / linesPerRow
	region := func(worker, task int) uint64 {
		// Disjoint, row-aligned regions. The +1 row of slack breaks
		// the bank-alignment that would otherwise march every stream
		// through the same bank sequence in lockstep (a convoy the
		// real machine's physical page allocation never produces).
		idx := uint64(worker*tasksPerStream + task)
		return idx * uint64(rowsPerTask+1) * uint64(cfg.RowBytes)
	}
	launch = func(worker, task int) {
		if task >= tasksPerStream {
			return
		}
		start := eng.Now()
		sys.StartStream(region(worker, task), lines, func(finished sim.Time) {
			if task > 0 { // skip warm-up task
				durations = append(durations, float64(finished-start))
			}
			launch(worker, task+1)
		})
	}
	for w := 0; w < k; w++ {
		launch(w, 0)
	}
	eng.Run()
	return durations
}

// Calibration is the result of fitting the paper's contention law
// Tm_k = Tml + k*Tql to measured steady-state task times.
type Calibration struct {
	Tml     sim.Time   // contention-free component (fit intercept)
	Tql     sim.Time   // queueing latency per concurrent task (fit slope)
	R2      float64    // goodness of the linear fit
	Tm      []sim.Time // Tm[k-1] = measured mean task time under k streams
	Tasklet int        // footprint bytes per task used during calibration
}

// TmK returns the fitted mean memory-task time under k concurrent
// tasks for the calibration footprint.
func (c Calibration) TmK(k int) sim.Time {
	return c.Tml + sim.Time(k)*c.Tql
}

// PerByte returns the fitted (tml, tql) normalised per byte of task
// footprint, for scaling to other footprints in the fluid model.
func (c Calibration) PerByte() (tml, tql float64) {
	f := float64(c.Tasklet)
	return float64(c.Tml) / f, float64(c.Tql) / f
}

// Calibrate measures task times for k = 1..maxK concurrent streams and
// fits the linear contention law. footprint is the per-task transfer
// size in bytes (the paper keeps it below the per-core LLC share, e.g.
// 0.5–2 MB); tasksPerStream controls measurement length.
//
// The per-k measurements run on independent simulation engines, so
// they fan out across the process's parallel worker budget; results
// are assembled in k order and the fit is identical to a serial
// calibration.
func Calibrate(cfg Config, maxK, tasksPerStream, footprint int) (Calibration, error) {
	if maxK < 2 {
		return Calibration{}, fmt.Errorf("mem: Calibrate needs maxK >= 2 to fit a line, got %d", maxK)
	}
	calibrateRuns.Add(1)
	cal := Calibration{Tasklet: footprint}
	type outcome struct {
		tm  sim.Time
		err error
	}
	measured := parallel.Map(0, maxK, func(i int) outcome {
		tm, err := MeasureTaskTime(cfg, i+1, tasksPerStream, footprint)
		return outcome{tm, err}
	})
	for k := 1; k <= maxK; k++ {
		o := measured[k-1]
		if o.err != nil {
			return Calibration{}, o.err
		}
		cal.Tm = append(cal.Tm, o.tm)
	}
	if err := cal.fit(); err != nil {
		return Calibration{}, err
	}
	return cal, nil
}

// fit fills the linear-law parameters from the measured Tm series.
func (c *Calibration) fit() error {
	xs := make([]float64, len(c.Tm))
	ys := make([]float64, len(c.Tm))
	for i, tm := range c.Tm {
		xs[i] = float64(i + 1)
		ys[i] = float64(tm)
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return err
	}
	c.Tml = sim.Time(fit.Intercept)
	c.Tql = sim.Time(fit.Slope)
	c.R2 = fit.R2
	return nil
}

// calibrateRuns counts full (non-cached) Calibrate executions; tests
// use it to assert the cache actually deduplicates work.
var calibrateRuns atomic.Uint64

// CalibrateRuns reports how many times Calibrate has executed a full
// measurement sweep in this process (cache hits excluded).
func CalibrateRuns() uint64 { return calibrateRuns.Load() }

// calKey identifies one calibration request. Config is a flat value
// type, so the whole argument tuple is comparable.
type calKey struct {
	cfg            Config
	maxK           int
	tasksPerStream int
	footprint      int
}

// calEntry is a singleflight slot: the first requester computes, every
// later requester waits on once and reads the shared result. done is
// set under calCacheMu once cal and err are final.
type calEntry struct {
	once sync.Once
	cal  Calibration
	err  error
	done bool
}

var (
	calCacheMu sync.Mutex
	calCache   = map[calKey]*calEntry{}
)

// CalibrateCached is Calibrate behind a process-wide cache keyed by
// the full argument tuple. Calibration is deterministic in its inputs
// (every RNG inside is seeded from cfg.Seed), so each DRAM
// configuration needs to be measured exactly once per process no
// matter how many environments, tests, or CLI entry points request
// it. Concurrent requests for the same key share one measurement.
//
// Each Tm[k] is MeasureTaskTime(cfg, k, ...) whatever maxK, so a
// request whose points were all measured by an earlier, wider sweep of
// the same (cfg, tasksPerStream, footprint) is fitted from those
// points without simulating.
func CalibrateCached(cfg Config, maxK, tasksPerStream, footprint int) (Calibration, error) {
	return calibrateCachedWith(cfg, maxK, tasksPerStream, footprint, Calibrate)
}

// CalibrateWarmCached is CalibrateCached computing through the
// warm-start Calibrator instead of the fanned-out one-shot Calibrate.
// Both fill the same cache: their results are bit-identical, so
// whichever path measures a configuration first serves every later
// request for it.
func CalibrateWarmCached(cfg Config, maxK, tasksPerStream, footprint int) (Calibration, error) {
	return calibrateCachedWith(cfg, maxK, tasksPerStream, footprint, CalibrateWarm)
}

// calibrateCachedWith resolves one calibration request through the
// process-wide cache, computing on miss via the supplied sweep.
func calibrateCachedWith(cfg Config, maxK, tasksPerStream, footprint int,
	sweep func(Config, int, int, int) (Calibration, error)) (Calibration, error) {
	key := calKey{cfg, maxK, tasksPerStream, footprint}
	calCacheMu.Lock()
	e := calCache[key]
	if e == nil {
		e = &calEntry{}
		calCache[key] = e
	}
	calCacheMu.Unlock()
	e.once.Do(func() {
		if tm := cachedPoints(key); tm != nil {
			e.cal = Calibration{Tasklet: footprint, Tm: tm}
			e.err = e.cal.fit()
		} else {
			e.cal, e.err = sweep(cfg, maxK, tasksPerStream, footprint)
		}
		calCacheMu.Lock()
		e.done = true
		calCacheMu.Unlock()
	})
	if e.err != nil {
		return Calibration{}, e.err
	}
	// Copy the Tm slice so callers cannot corrupt the cached entry.
	cal := e.cal
	cal.Tm = append([]sim.Time(nil), e.cal.Tm...)
	return cal, nil
}

// cachedPoints returns a copy of Tm[1..key.maxK] from a finished sweep
// of the same configuration and methodology that went at least as far,
// or nil if there is none.
func cachedPoints(key calKey) []sim.Time {
	if key.maxK < 2 {
		return nil // let the sweep report the invalid request
	}
	calCacheMu.Lock()
	defer calCacheMu.Unlock()
	for k, e := range calCache {
		wider := k
		wider.maxK = key.maxK
		if wider == key && k.maxK > key.maxK && e.done && e.err == nil {
			return append([]sim.Time(nil), e.cal.Tm[:key.maxK]...)
		}
	}
	return nil
}
