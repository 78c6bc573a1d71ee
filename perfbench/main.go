// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks that the program's outputs are
// correct, and prints its metrics as one JSON object on the last line
// of standard output.
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload host-batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the run is split in two halves, one
// untraced and one traced; the result carries the per-layer metrics of
// the traced half plus the tracing overhead (traced minus untraced) of
// every end-to-end metric, and the spans and counts are written once,
// at exit, to .bench_build/trace/<workload>-seed<seed>.json. README.md
// next to this file lists the workloads and metrics and says which
// end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs one pass
// of it for the given number of seconds.
var workloads = map[string]func(seed int64, seconds float64, tr *tracer) (pass, error){
	"sim-catalog": catalogPass,
	"host-batch":  batchPass,
	"host-serve":  hostServePass,
}

// pass is what one measured pass of a workload yields: the checks it
// made, its end-to-end metrics, and, when traced, its per-layer ones.
type pass struct {
	attempted, failed int
	rejected          int64   // serving only: jobs the server refused
	p99               float64 // windowed 99th percentile of op latency, ms
	e2e               map[string]float64
	layer             map[string]float64
}

// sessions is how many independent sessions, each with a fresh
// runtime and controller, a pass of a host workload runs one after
// another, its time split evenly between them; setup_s is the median
// of their set-ups. With several sessions, one run's figures do not
// hang on where one controller happened to settle.
const sessions = 5

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: sim-catalog, host-batch or host-serve")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 10, "how long the run measures, in seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced half-run; 0: end-to-end metrics")
		child   = flag.Bool("catalog-child", false, "internal: run the experiment catalog once in this process and print its report")
	)
	flag.Parse()
	if *child {
		return catalogChild(*trace == 1, os.Stdout)
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want >= 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}

	info := describeRun(*name, *seed, *trace)
	line, err := json.Marshal(map[string]any{"run": info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	var res result
	if *trace == 0 {
		p, err := fn(*seed, float64(*seconds), nil)
		if err != nil {
			return err
		}
		if res, err = makeResult(p.attempted, p.failed, p.e2e, endToEnd); err != nil {
			return err
		}
	} else {
		half := float64(*seconds) / 2
		plain, err := fn(*seed, half, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err := fn(*seed, half, tr)
		if err != nil {
			return err
		}
		layer := traced.layer
		for _, m := range endToEnd {
			layer["overhead."+m.Name] = traced.e2e[m.Name] - plain.e2e[m.Name]
		}
		attempted := plain.attempted + traced.attempted
		failed := plain.failed + traced.failed
		layer["fail_ratio"] = float64(failed) / float64(attempted)
		if res, err = makeResult(attempted, failed, layer, perLayer()); err != nil {
			return err
		}
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path, info, res.Metrics); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: wrote trace", path)
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// makeResult builds the result line from exactly the listed metrics,
// each of which the pass must have measured as a finite number.
func makeResult(attempted, failed int, vals map[string]float64, defs []metric) (result, error) {
	r := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s not measured (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return r, nil
}

// runInfo identifies the machine, toolchain and code a result came from.
type runInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func describeRun(name string, seed int64, trace int) runInfo {
	info := runInfo{
		Workload:   name,
		Seed:       seed,
		Trace:      trace,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if info.Commit != "unknown" {
			info.Commit += dirty
		}
	}
	return info
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root, so a
// result names the code it measured even in a checkout without git
// metadata. Dot directories (.git, .bench_build) are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads this process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs must be non-empty; it is sorted in place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// window is the span of measured time over which a workload's
// operations are summarised before the median over the run's windows
// is reported: a short stall of the shared machine then moves one
// window, not the run's figure.
const window = 250 * time.Millisecond

// windows reduces a stream of timed operations to per-window figures
// without keeping every sample. Samples arrive in time order.
type windows struct {
	open       int       // index of the open window
	vals       []float64 // the open window's operation latencies
	work, busy float64   // units done, and time spent, in the open window

	p50, p99, rate []float64 // one entry per closed window
}

// add records one operation that started at, on the run's clock, took
// v, and did work units in busy seconds.
func (w *windows) add(at time.Duration, v, work, busy float64) {
	if k := int(at / window); k != w.open {
		w.close()
		w.open = k
	}
	w.vals = append(w.vals, v)
	w.work += work
	w.busy += busy
}

// close summarises the open window, if it holds any samples.
func (w *windows) close() {
	if len(w.vals) > 0 {
		w.p50 = append(w.p50, quantile(w.vals, 0.50))
		w.p99 = append(w.p99, quantile(w.vals, 0.99))
		if w.busy > 0 {
			w.rate = append(w.rate, w.work/w.busy)
		}
	}
	w.vals = w.vals[:0]
	w.work, w.busy = 0, 0
}

// medians closes the open window and returns the medians, over all
// windows, of each window's 50th and 99th percentile latency and of
// its work rate (0 when no window timed any work).
func (w *windows) medians() (p50, p99, rate float64) {
	w.close()
	if len(w.p50) == 0 {
		return 0, 0, 0
	}
	if len(w.rate) > 0 {
		rate = median(w.rate)
	}
	return median(w.p50), median(w.p99), rate
}

// median returns the median of xs, which it sorts in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
