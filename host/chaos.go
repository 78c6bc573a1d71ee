package host

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultKind names one class of injected fault.
type FaultKind int

const (
	// FaultNone leaves the task untouched.
	FaultNone FaultKind = iota
	// FaultPanic makes the task panic.
	FaultPanic
	// FaultHang blocks the task until the injector is stopped.
	FaultHang
	// FaultError makes the task return an error.
	FaultError
	// FaultSpike delays the task by SpikeDelay before running it.
	FaultSpike
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	case FaultError:
		return "error"
	case FaultSpike:
		return "spike"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultConfig parameterises a FaultInjector. Rates are per-task
// probabilities drawn once per wrapped task from the seeded RNG, so a
// given (config, pair slice) always produces the same fault plan
// regardless of scheduling.
type FaultConfig struct {
	// PanicRate is the probability a task panics.
	PanicRate float64
	// HangRate is the probability a task blocks until Stop.
	HangRate float64
	// ErrorRate is the probability a task returns an error.
	ErrorRate float64
	// SpikeRate is the probability a task is delayed by SpikeDelay
	// before running — a latency spike, not a failure.
	SpikeRate float64
	// SpikeDelay is the injected latency. Default: 1ms.
	SpikeDelay time.Duration
	// FailuresPerTask bounds how many executions of a panic- or
	// error-faulted task fail before it starts succeeding, making
	// those faults transient and recoverable by retry. 0 defaults
	// to 1; negative means the task fails forever.
	FailuresPerTask int
	// Seed seeds the fault-plan RNG.
	Seed int64
}

// validate reports a configuration error.
func (c FaultConfig) validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"PanicRate", c.PanicRate},
		{"HangRate", c.HangRate},
		{"ErrorRate", c.ErrorRate},
		{"SpikeRate", c.SpikeRate},
	}
	sum := 0.0
	for _, r := range rates {
		// NaN compares false against every bound, so test it explicitly:
		// a NaN rate would otherwise pass and poison every plant decision.
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("host: %s = %g, want in [0, 1]", r.name, r.v)
		}
		sum += r.v
	}
	if sum > 1 {
		return fmt.Errorf("host: fault rates sum to %g, want <= 1", sum)
	}
	if c.SpikeDelay < 0 {
		return fmt.Errorf("host: SpikeDelay = %v, want >= 0", c.SpikeDelay)
	}
	return nil
}

// FaultCounts tallies the faults an injector has planted and fired.
type FaultCounts struct {
	Panics, Hangs, Errors, Spikes, Clean int // planted, per wrapped task
	Fired                                int // fault activations at run time
}

// FaultInjector wraps pair slices to inject latency spikes, panics,
// hangs and error returns at configured rates from a seeded RNG — the
// chaos harness for the fault-tolerant runtime. Hung tasks block until
// Stop releases them, so tests can assert a cancelled run returned
// promptly and then drain every goroutine.
type FaultInjector struct {
	cfg  FaultConfig
	stop chan struct{}
	once sync.Once

	mu      sync.Mutex
	rng     *rand.Rand
	planted FaultCounts
	fired   atomic.Int64
	hung    atomic.Int64 // tasks currently blocked in a hang
}

// NewFaultInjector builds an injector for the given fault plan.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SpikeDelay == 0 {
		cfg.SpikeDelay = time.Millisecond
	}
	if cfg.FailuresPerTask == 0 {
		cfg.FailuresPerTask = 1
	}
	return &FaultInjector{
		cfg:  cfg,
		stop: make(chan struct{}),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Stop releases every hung task and disarms future hangs. Idempotent.
func (f *FaultInjector) Stop() {
	f.once.Do(func() { close(f.stop) })
}

// Counts reports the planted fault plan plus run-time activations.
func (f *FaultInjector) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.planted
	c.Fired = int(f.fired.Load())
	return c
}

// Hung reports how many tasks are currently blocked in an injected
// hang (they drain after Stop).
func (f *FaultInjector) Hung() int { return int(f.hung.Load()) }

// draw picks the fault for one task. Caller is the single-threaded
// Wrap loop; decisions are made at wrap time so the plan is
// deterministic in (Seed, task order).
func (f *FaultInjector) draw() FaultKind {
	u := f.rng.Float64()
	c := f.cfg
	switch {
	case u < c.PanicRate:
		f.planted.Panics++
		return FaultPanic
	case u < c.PanicRate+c.HangRate:
		f.planted.Hangs++
		return FaultHang
	case u < c.PanicRate+c.HangRate+c.ErrorRate:
		f.planted.Errors++
		return FaultError
	case u < c.PanicRate+c.HangRate+c.ErrorRate+c.SpikeRate:
		f.planted.Spikes++
		return FaultSpike
	default:
		f.planted.Clean++
		return FaultNone
	}
}

// wrapTask decorates one task function with its drawn fault.
func (f *FaultInjector) wrapTask(pair int, name string, fn func() error) func() error {
	f.mu.Lock()
	kind := f.draw()
	f.mu.Unlock()
	if kind == FaultNone {
		return fn
	}
	var fails atomic.Int64
	return func() error {
		transientBudget := f.cfg.FailuresPerTask < 0 ||
			fails.Load() < int64(f.cfg.FailuresPerTask)
		switch kind {
		case FaultPanic:
			if transientBudget {
				fails.Add(1)
				f.fired.Add(1)
				panic(fmt.Sprintf("chaos: injected panic (pair %d %s)", pair, name))
			}
		case FaultHang:
			select {
			case <-f.stop:
				// Disarmed: run normally.
			default:
				f.fired.Add(1)
				f.hung.Add(1)
				<-f.stop
				f.hung.Add(-1)
			}
		case FaultError:
			if transientBudget {
				fails.Add(1)
				f.fired.Add(1)
				return fmt.Errorf("chaos: injected error (pair %d %s)", pair, name)
			}
		case FaultSpike:
			f.fired.Add(1)
			time.Sleep(f.cfg.SpikeDelay)
		}
		return fn()
	}
}

// Wrap returns a copy of pairs with every task decorated by the fault
// plan. The input must be valid (each slot singly set); invalid pairs
// are returned unchanged for the runtime to reject with its usual
// error.
func (f *FaultInjector) Wrap(pairs []Pair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = p
		if p.check() != nil {
			continue
		}
		out[i] = Pair{
			MemoryErr:  f.wrapTask(i, "memory", errForm(p.Memory, p.MemoryErr)),
			ComputeErr: f.wrapTask(i, "compute", errForm(p.Compute, p.ComputeErr)),
			Class:      p.Class,
		}
		if p.Scatter != nil || p.ScatterErr != nil {
			out[i].ScatterErr = f.wrapTask(i, "scatter", errForm(p.Scatter, p.ScatterErr))
		}
	}
	return out
}

// errForm returns a task slot in its error-returning form.
func errForm(plain func(), withErr func() error) func() error {
	if withErr != nil {
		return withErr
	}
	return func() error { plain(); return nil }
}
