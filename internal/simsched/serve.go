package simsched

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/sim"
)

// Arrivals is the arrival-process contract MixRun consumes,
// satisfied structurally by internal/workload's Poisson and MMPP
// generators. Declared here rather than imported so workload's tests
// can drive simsched without an import cycle.
type Arrivals interface {
	// Next returns the inter-arrival gap to the next job, in seconds.
	Next() float64
	// Rate reports the long-run mean arrival rate, in jobs per second.
	Rate() float64
	// Name identifies the process in reports.
	Name() string
}

// ServeSpec describes one open-loop serving run of identical jobs
// (gather-compute pairs): a single class-0 stream of MixRun, the
// deterministic substrate of the S1 experiment.
type ServeSpec struct {
	// Arrivals generates inter-arrival gaps (seconds of virtual time).
	Arrivals Arrivals
	// Jobs is the number of arrivals to generate before draining.
	Jobs int
	// Gather is the per-job gather footprint in bytes; Compute the solo
	// compute duration. Both are noised per job exactly as the
	// closed-loop scheduler noises pairs.
	Gather  float64
	Compute sim.Time
	// Queue bounds the pending queue; arrivals finding it full are
	// shed (dropped). Queue <= 0 leaves the queue unbounded — latency
	// then grows without bound past saturation, the no-shedding
	// contrast.
	Queue int
}

// Validate reports a spec error, if any.
func (s ServeSpec) Validate() error {
	if s.Arrivals == nil {
		return fmt.Errorf("simsched: ServeSpec without an arrival process")
	}
	if s.Jobs < 1 {
		return fmt.Errorf("simsched: ServeSpec.Jobs = %d, want >= 1", s.Jobs)
	}
	if s.Gather <= 0 {
		return fmt.Errorf("simsched: ServeSpec.Gather = %g, want > 0", s.Gather)
	}
	if s.Compute <= 0 {
		return fmt.Errorf("simsched: ServeSpec.Compute = %v, want > 0", s.Compute)
	}
	return nil
}

// steadyShape is a ServeSpec's constant job shape.
type steadyShape struct{ gather, compute float64 }

func (s steadyShape) NextShape() (float64, float64) { return s.gather, s.compute }
func (s steadyShape) Name() string                  { return "steady" }

// ServeRun executes spec as a one-stream MixRun; the result's
// ByClass[0] holds the stream's counters and latencies. Panics on
// invalid configuration or spec.
func ServeRun(cfg Config, spec ServeSpec, th core.Throttler) MixResult {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return MixRun(cfg, MixSpec{
		Streams: []Stream{{
			Arrivals: spec.Arrivals,
			Shapes:   steadyShape{spec.Gather, float64(spec.Compute)},
			Jobs:     spec.Jobs,
		}},
		Queue: spec.Queue,
	}, th)
}
