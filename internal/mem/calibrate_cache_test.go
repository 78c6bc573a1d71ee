package mem

import (
	"reflect"
	"sync"
	"testing"
)

// footprint512K mirrors workload.Footprint (importing workload here
// would create an import cycle through contend).
const footprint512K = 512 << 10

// TestCalibrateCachedDeduplicates asserts that repeated and concurrent
// requests for the same configuration perform exactly one measurement
// sweep, and that distinct configurations are cached independently.
func TestCalibrateCachedDeduplicates(t *testing.T) {
	cfg := DDR3_1066()
	cfg.Seed = 424242 // private key: other tests must not pre-warm it

	before := CalibrateRuns()
	first, err := CalibrateCached(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if got := CalibrateRuns() - before; got != 1 {
		t.Fatalf("first request ran %d calibrations, want 1", got)
	}

	var wg sync.WaitGroup
	results := make([]Calibration, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cal, err := CalibrateCached(cfg, 4, 6, footprint512K)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = cal
		}(i)
	}
	wg.Wait()
	if got := CalibrateRuns() - before; got != 1 {
		t.Errorf("after 8 concurrent repeats: %d calibrations, want 1", got)
	}
	for i, cal := range results {
		if cal.Tml != first.Tml || cal.Tql != first.Tql || cal.R2 != first.R2 {
			t.Errorf("result %d differs from first: %+v vs %+v", i, cal, first)
		}
	}

	// A different configuration must miss.
	cfg2 := cfg
	cfg2.HitStreakCap = cfg.HitStreakCap + 1
	if _, err := CalibrateCached(cfg2, 4, 6, footprint512K); err != nil {
		t.Fatal(err)
	}
	if got := CalibrateRuns() - before; got != 2 {
		t.Errorf("distinct config did not measure: %d calibrations, want 2", got)
	}

	// Mutating a returned Tm slice must not poison the cache.
	first.Tm[0] = -1
	again, err := CalibrateCached(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if again.Tm[0] == -1 {
		t.Error("cached calibration shares Tm storage with callers")
	}
}

// TestCalibrateParallelMatchesSerial pins the determinism of the
// fanned-out per-k measurement: Calibrate with any worker budget must
// reproduce the serial fit bit for bit, because each MeasureTaskTime
// runs on its own engine seeded only by the config.
func TestCalibrateParallelMatchesSerial(t *testing.T) {
	cfg := DDR3_1066()
	a, err := Calibrate(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tml != b.Tml || a.Tql != b.Tql || a.R2 != b.R2 {
		t.Errorf("repeated calibration differs: %+v vs %+v", a, b)
	}
	for k := range a.Tm {
		if a.Tm[k] != b.Tm[k] {
			t.Errorf("Tm[%d] differs: %v vs %v", k, a.Tm[k], b.Tm[k])
		}
	}
}

// TestCalibrateCachedReusesWiderSweep asserts that a request whose
// points a wider cached sweep already measured runs no sweep of its
// own, and that the fit it serves is the one-shot Calibrate's bit for
// bit.
func TestCalibrateCachedReusesWiderSweep(t *testing.T) {
	cfg := DDR3_1066()
	cfg.Seed = 434343 // private key: other tests must not pre-warm it

	if _, err := CalibrateCached(cfg, 8, 6, footprint512K); err != nil {
		t.Fatal(err)
	}
	before := CalibrateRuns()
	got, err := CalibrateCached(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if n := CalibrateRuns() - before; n != 0 {
		t.Errorf("narrower request ran %d calibrations, want 0", n)
	}
	want, err := Calibrate(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused fit differs from Calibrate:\n got %+v\nwant %+v", got, want)
	}

	// A different methodology must still measure.
	before = CalibrateRuns()
	if _, err := CalibrateCached(cfg, 4, 7, footprint512K); err != nil {
		t.Fatal(err)
	}
	if n := CalibrateRuns() - before; n != 1 {
		t.Errorf("distinct tasksPerStream ran %d calibrations, want 1", n)
	}
}
