package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"memthrottle/host"
	"memthrottle/internal/experiments"
	"memthrottle/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite testdata/catalog.txt from a fresh catalog run")

// TestCatalogReference regenerates the stored catalog tables with
// -update; without it, it only checks the reference parses into one
// table per catalog experiment but the host-timed one.
func TestCatalogReference(t *testing.T) {
	if *update {
		parallel.SetDefault(1)
		env, err := experiments.NewEnv(false, experiments.Options{})
		if err != nil {
			t.Fatal(err)
		}
		env = env.WithWorkers(1)
		tables := make(map[string]experiments.Table)
		for _, s := range experiments.Catalog() {
			if tables[s.ID], err = s.Run(env); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile("testdata/catalog.txt", []byte(renderReference(tables)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ref := parseReference(catalogReference)
	if want := len(experiments.Catalog()) - 1; len(ref) != want {
		t.Errorf("reference has %d tables, want %d", len(ref), want)
	}
	if _, ok := ref[hostTimedTable]; ok {
		t.Errorf("reference holds the host-timed table %s", hostTimedTable)
	}
}

// TestCheckTablesCatchesMutation renders the three cheapest tables,
// which must match the reference, then shows the check fails on one
// changed cell and on a missing table.
func TestCheckTablesCatchesMutation(t *testing.T) {
	parallel.SetDefault(1)
	env, err := experiments.NewEnv(false, experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := parseReference(catalogReference)
	ref := make(map[string]string)
	tables := make(map[string]experiments.Table)
	for _, id := range []string{"C1", "T2", "T3"} {
		s, ok := experiments.Find(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		if tables[id], err = s.Run(env.WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
		ref[id] = full[id]
	}
	if n, failed := checkTables(tables, ref); n != 3 || len(failed) != 0 {
		t.Fatalf("fresh tables: checked %d, failed %v", n, failed)
	}

	c1 := tables["C1"]
	c1.Rows = append([][]string(nil), c1.Rows...)
	c1.Rows[0] = append([]string(nil), c1.Rows[0]...)
	c1.Rows[0][2] += "1"
	tables["C1"] = c1
	delete(tables, "T3")
	n, failed := checkTables(tables, ref)
	if got := strings.Join(failed, ","); got != "C1,T3" {
		t.Fatalf("failed = %q, want C1,T3", got)
	}
	if ratio := float64(len(failed)) / float64(n); ratio <= 0 {
		t.Fatalf("fail_ratio = %g", ratio)
	}
}

// TestCheckPhaseCatchesSkippedWrites runs a batch phase in which one
// pair's Memory callback skips its writes, so Compute sums stale data.
func TestCheckPhaseCatchesSkippedWrites(t *testing.T) {
	rt, a, err := batchSetup(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs, err := a.Pairs(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := checkPhase(a, st); f != 0 {
		t.Fatalf("healthy phase failed %d checks", f)
	}
	if pairs, err = a.Pairs(1); err != nil {
		t.Fatal(err)
	}
	pairs[5].Memory = func() {}
	if st, err = rt.Run(pairs); err != nil {
		t.Fatal(err)
	}
	if f, _ := checkPhase(a, st); f != 1 {
		t.Fatalf("phase with a skipped gather failed %d checks, want 1", f)
	}
}

// TestCheckJobsCatchesLostJob drains a session in which one accepted
// job's Compute never reports completion.
func TestCheckJobsCatchesLostJob(t *testing.T) {
	s, err := openSession(8, false, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := serveArrays; i < len(s.recs); i++ {
		p := s.pair(i)
		if i == serveArrays+3 {
			p.Compute = func() {} // completes for the runtime, never for the job
		}
		if err := s.srv.Submit(p); err != nil {
			s.recs[i].rejected = true
		}
	}
	_, _, failed, err := s.close(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if ratio := float64(failed) / float64(len(s.recs)); ratio <= 0 {
		t.Fatalf("fail_ratio = %g", ratio)
	}
}

// TestCheckJobsBalancesCounters checks the counter identities on their
// own: a session whose stats report one job more than was offered.
func TestCheckJobsBalancesCounters(t *testing.T) {
	recs := make([]jobRec, 2)
	recs[0].sum, recs[1].sum = expectedSum(0), expectedSum(1)
	recs[0].done.Store(1)
	recs[1].done.Store(1)
	ok := host.ServeStats{Submitted: 2, Completed: 2}
	if f := checkJobs(recs, ok); f != 0 {
		t.Fatalf("balanced session failed %d checks", f)
	}
	if f := checkJobs(recs, host.ServeStats{Submitted: 3, Completed: 3}); f == 0 {
		t.Fatal("unbalanced session passed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists here and in
// BENCHMARK.json identical, and every name in the allowed alphabet.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer()...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
}
