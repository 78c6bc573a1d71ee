package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"memthrottle/internal/core"
	"memthrottle/internal/experiments"
	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/sim"
	"memthrottle/internal/simsched"
	"memthrottle/internal/workload"
)

// The sim-catalog workload is what a reader of the paper runs:
// `mtlbench -all` at paper methodology (20 repetitions) with one
// experiment worker. Each catalog runs in a fresh process with no disk
// cache, so the calibration cache and the baseline memo start empty on
// purpose: mtlbench users pay for them on every run. One worker keeps
// the figure about the simulator rather than about how the sandbox
// schedules two busy threads.

// catalogReference holds every catalog table as `mtlbench -all`
// renders it, without the elapsed lines. Regenerate it with
// `go test -run TestCatalogReference -update` after a change that is
// meant to alter a table.
//
//go:embed testdata/catalog.txt
var catalogReference string

// hostTimedTable is the one table built from host wall-clock
// measurements; it differs between runs and is not checked.
const hostTimedTable = "D1H"

// catalogReport is what one catalog process prints for its parent.
type catalogReport struct {
	SetupS  float64            `json:"setup_s"`
	IDs     []string           `json:"ids"`
	Seconds []float64          `json:"seconds"`
	Checked int                `json:"checked"`
	Failed  []string           `json:"failed"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
}

// catalogPass runs catalog processes one after another until the pass
// has lasted the given seconds (at least one), and reduces their
// reports. The seed is recorded but unused: the catalog has no input
// that varies.
func catalogPass(_ int64, seconds float64, tr *tracer) (pass, error) {
	exe, err := os.Executable()
	if err != nil {
		return pass{}, err
	}
	args := []string{"--catalog-child", "--trace", "0"}
	if tr != nil {
		args[2] = "1"
	}
	var (
		setups, rss []float64
		catalogMS   []float64 // wall time of each process's catalog
		experiments int
		layers      []map[string]float64
		total       float64
		p           pass
	)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		sp := tr.begin("catalog process", -1)
		var launched int64
		if tr != nil {
			launched = tr.now()
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return pass{}, fmt.Errorf("catalog process: %w", err)
		}
		var rep catalogReport
		if err := json.Unmarshal(out, &rep); err != nil {
			return pass{}, fmt.Errorf("catalog process report: %w", err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return pass{}, fmt.Errorf("catalog process: no resource usage")
		}
		rss = append(rss, float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
		setups = append(setups, rep.SetupS)
		var catalog float64
		for _, s := range rep.Seconds {
			catalog += s
		}
		catalogMS = append(catalogMS, 1000*catalog)
		total += catalog
		experiments += len(rep.Seconds)
		p.attempted += rep.Checked
		p.failed += len(rep.Failed)
		for _, id := range rep.Failed {
			fmt.Fprintf(os.Stderr, "perfbench: table %s differs from the reference\n", id)
		}
		if tr != nil {
			tr.graft(rep.Spans, launched, sp)
			layers = append(layers, rep.Layer)
		}
		tr.end(sp)
	}
	p.e2e = map[string]float64{
		"setup_s":     median(setups),
		"peak_rss_mb": median(rss),
		"op_ms_p50":   median(catalogMS),
		"work_per_s":  float64(experiments) / total,
	}
	if tr != nil {
		p.layer = zeroLayer()
		for k := range layers[0] {
			vals := make([]float64, len(layers))
			for i, l := range layers {
				vals[i] = l[k]
			}
			p.layer[k] = median(vals)
		}
	}
	return p, nil
}

// catalogChild runs the catalog once in this (fresh) process and
// writes a catalogReport to w.
func catalogChild(traced bool, w io.Writer) error {
	parallel.SetDefault(1)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	cal0, runs0 := mem.CalibrateRuns(), simsched.RunCount()
	root := tr.begin("catalog", -1)
	t0 := time.Now()
	sp := tr.begin("experiments.NewEnv", root)
	env, err := experiments.NewEnv(false, experiments.Options{})
	tr.endCounts(sp, simCounts(cal0, runs0))
	if err != nil {
		return err
	}
	rep := catalogReport{SetupS: time.Since(t0).Seconds()}
	env = env.WithWorkers(1)

	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	tables := make(map[string]experiments.Table)
	for _, s := range experiments.Catalog() {
		c0, r0 := mem.CalibrateRuns(), simsched.RunCount()
		sp := tr.begin("experiments.Spec.Run "+s.ID, root)
		t := time.Now()
		tab, err := s.Run(env)
		d := time.Since(t)
		tr.endCounts(sp, simCounts(c0, r0))
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		rep.IDs = append(rep.IDs, s.ID)
		rep.Seconds = append(rep.Seconds, d.Seconds())
		tables[s.ID] = tab
	}
	if traced {
		runtime.ReadMemStats(&ms1)
	}
	calibrations, runs := mem.CalibrateRuns()-cal0, simsched.RunCount()-runs0
	tr.end(root)

	rep.Checked, rep.Failed = checkTables(tables, parseReference(catalogReference))
	if traced {
		l := map[string]float64{
			"sim.alloc_mb":     float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
			"sim.gc_cycles":    float64(ms1.NumGC - ms0.NumGC),
			"mem.calibrations": float64(calibrations),
			"sched.runs":       float64(runs),
		}
		for i, id := range rep.IDs {
			l["exp."+id+"_s"] = rep.Seconds[i]
		}
		if l["sim.f14_dynamic_gmean"], err = cell(tables["F14"], "gmean", "dynamic speedup"); err != nil {
			return err
		}
		if l["sim.x2_mean_err_pct"], err = cell(tables["X2"], "", "mean rel err"); err != nil {
			return err
		}
		if err := probeLayers(env, tr, l); err != nil {
			return err
		}
		rep.Layer = l
		rep.Spans = tr.spans
	}
	return json.NewEncoder(w).Encode(rep)
}

// simCounts reads the simulator's layer counters as deltas from the
// given starting values.
func simCounts(cal0, runs0 uint64) map[string]int64 {
	return map[string]int64{
		"mem.calibrations": int64(mem.CalibrateRuns() - cal0),
		"sched.runs":       int64(simsched.RunCount() - runs0),
	}
}

// probeLayers times one call into each simulator layer on its own,
// taking the median of three, and stores the figures in l.
func probeLayers(env experiments.Env, tr *tracer, l map[string]float64) error {
	root := tr.begin("probes", -1)
	defer tr.end(root)
	var err error
	probe := func(name string, f func()) float64 {
		times := make([]float64, 3)
		for i := range times {
			sp := tr.begin(name, root)
			t := time.Now()
			f()
			times[i] = ms(time.Since(t))
			tr.end(sp)
		}
		return median(times)
	}

	l["mem.calibrate_ms"] = probe("mem.Calibrate", func() {
		if _, e := mem.Calibrate(mem.DDR3_1066(), 4, 6, workload.Footprint); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// F14's dft program under the paper's dynamic controller.
	cfg := env.Cfg()
	cfg.Seed = 1
	model := experiments.Model(cfg)
	dft := env.Lib().DFT()
	w := min(core.RecommendWindow(dft.TotalPairs()), env.W)
	l["sched.run_ms"] = probe("simsched.Run", func() {
		simsched.Run(dft, cfg, core.NewDynamic(model, w))
	})

	// One S1 point (0.95x the conventional capacity, D-MTL) and one R2
	// flood cell (blacklist+D-MTL), on S1's job shape.
	pair := env.Lib().Synthetic(1.1, 512<<10, 1).Phases[0].Pairs[0]
	gather, compute := pair.Gather.Bytes, float64(pair.Compute.Work)
	n := cfg.Machine.HardwareThreads()
	sat := 50 * float64(n) / (gather*1e-9 + compute)
	capacity := simsched.ServeRun(cfg, simsched.ServeSpec{
		Arrivals: workload.NewPoisson(sat, 1),
		Jobs:     4000,
		Gather:   gather,
		Compute:  sim.Time(compute),
	}, core.Fixed{K: n}).Goodput
	if capacity <= 0 {
		return fmt.Errorf("serve capacity probe returned %g", capacity)
	}
	l["sched.serve_run_ms"] = probe("simsched.ServeRun", func() {
		simsched.ServeRun(cfg, simsched.ServeSpec{
			Arrivals: workload.NewPoisson(0.95*capacity, 1),
			Jobs:     4000,
			Gather:   gather,
			Compute:  sim.Time(compute),
			Queue:    64,
		}, core.NewDynamic(model, env.W))
	})
	l["sched.mix_run_ms"] = probe("simsched.MixRun", func() {
		simsched.MixRun(cfg, simsched.MixSpec{
			Streams: []simsched.Stream{
				{Class: 0, Arrivals: workload.NewPoisson(0.7*capacity, 1), Shapes: workload.NewSteady(gather, compute), Jobs: 3000},
				{Class: 1, Arrivals: workload.NewPoisson(0.6*capacity, 2), Shapes: workload.NewFlood(gather, 8, compute/4), Jobs: 1500},
			},
			Queue: 128,
		}, core.NewPolicyThrottler(core.NewBlacklist(core.NewDynamic(model, env.W), core.BlacklistOptions{}), env.W, n))
	})
	return nil
}

// cell parses one numeric cell of a table: the row whose first cell is
// row (the first row when row is empty) and the named column. A
// trailing % is dropped.
func cell(t experiments.Table, row, col string) (float64, error) {
	c := -1
	for i, name := range t.Columns {
		if name == col {
			c = i
		}
	}
	for _, r := range t.Rows {
		if c >= 0 && c < len(r) && (row == "" || r[0] == row) {
			return strconv.ParseFloat(strings.TrimSuffix(r[c], "%"), 64)
		}
	}
	return 0, fmt.Errorf("table %s has no cell (%q, %q)", t.ID, row, col)
}

// checkTables compares every rendered table but the host-timed one
// with the reference, byte for byte, matching them by the ID in their
// header line. A table missing on either side fails. It returns how
// many tables it checked and the IDs that failed.
func checkTables(tables map[string]experiments.Table, ref map[string]string) (int, []string) {
	got := make(map[string]string)
	ids := make(map[string]bool)
	for _, t := range tables {
		got[t.ID] = t.String()
		ids[t.ID] = true
	}
	for id := range ref {
		ids[id] = true
	}
	delete(ids, hostTimedTable)
	var failed []string
	for id := range ids {
		if text, ok := got[id]; !ok || text != ref[id] {
			failed = append(failed, id)
		}
	}
	sort.Strings(failed)
	return len(ids), failed
}

// parseReference splits the reference text into tables keyed by ID.
// Each table starts with its "== ID: title ==" line and ends before
// the next blank line.
func parseReference(text string) map[string]string {
	out := make(map[string]string)
	var id string
	var b strings.Builder
	flush := func() {
		if id != "" {
			out[id] = b.String()
		}
		id = ""
		b.Reset()
	}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			flush()
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
		case line == "":
			flush()
			continue
		}
		if id != "" {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	flush()
	return out
}

// renderReference renders the tables in catalog order, the host-timed
// one left out, in the format parseReference reads.
func renderReference(tables map[string]experiments.Table) string {
	var b strings.Builder
	for _, s := range experiments.Catalog() {
		if t, ok := tables[s.ID]; ok && s.ID != hostTimedTable {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
