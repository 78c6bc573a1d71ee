package host

import (
	"sync"
	"sync/atomic"
	"testing"
)

// domainTrackedPairs builds n pairs whose memory tasks maintain one
// live counter and high-water mark per home domain (home = pair index
// % domains), so tests can observe the actual per-domain peak memory
// concurrency independently of Stats.
func domainTrackedPairs(n, domains, work int) (pairs []Pair, peaks []int64) {
	live := make([]int64, domains)
	peaks = make([]int64, domains)
	pairs = make([]Pair, n)
	for i := range pairs {
		d := i % domains
		pairs[i] = Pair{
			Memory: func() {
				cur := atomic.AddInt64(&live[d], 1)
				for {
					old := atomic.LoadInt64(&peaks[d])
					if cur <= old || atomic.CompareAndSwapInt64(&peaks[d], old, cur) {
						break
					}
				}
				busy(work)
				atomic.AddInt64(&live[d], -1)
			},
			Compute: func() { busy(work / 2) },
		}
	}
	return pairs, peaks
}

// TestDomainConfigValidation exercises the domain knobs' error paths.
func TestDomainConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 4, Policy: Static, MTL: 2, Domains: -1}); err == nil {
		t.Fatal("negative Domains accepted")
	}
	if _, err := New(Config{Workers: 4, Policy: Static, MTL: 2, Domain: func(int) int { return 0 }}); err == nil {
		t.Fatal("Domain func accepted with a single domain")
	}
	rt, err := New(Config{Workers: 4, Policy: Static, MTL: 2, Domains: 2,
		Domain: func(pair int) int { return 5 }})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run([]Pair{{Memory: func() {}, Compute: func() {}}}); err == nil {
		t.Fatal("out-of-range Domain assignment accepted at Run")
	}
}

// TestDomainStatsAccounting checks the per-domain Stats slice: one
// entry per domain, pairs split by the default home rule, spill total
// consistent, and the global peak bounded by MTL x Domains.
func TestDomainStatsAccounting(t *testing.T) {
	const (
		domains = 4
		mtl     = 2
		pairs   = 42 // deliberately not a multiple of domains
	)
	rt, err := New(Config{Workers: 16, Policy: Static, MTL: mtl, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ps, _ := domainTrackedPairs(pairs, domains, 200)
	st, err := rt.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Domains) != domains {
		t.Fatalf("len(Stats.Domains) = %d, want %d", len(st.Domains), domains)
	}
	sumPairs, sumSpills := 0, 0
	for d, ds := range st.Domains {
		want := pairs / domains
		if d < pairs%domains {
			want++
		}
		if ds.Pairs != want {
			t.Errorf("domain %d: Pairs = %d, want %d", d, ds.Pairs, want)
		}
		if ds.PeakActive > mtl {
			t.Errorf("domain %d: PeakActive = %d, MTL is %d", d, ds.PeakActive, mtl)
		}
		sumPairs += ds.Pairs
		sumSpills += ds.Spills
	}
	if sumPairs != pairs {
		t.Errorf("sum of Domains[].Pairs = %d, want %d", sumPairs, pairs)
	}
	if sumSpills != st.Spills {
		t.Errorf("sum of Domains[].Spills = %d, Stats.Spills = %d", sumSpills, st.Spills)
	}
	if st.CompletedPairs != pairs {
		t.Errorf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
	if st.MaxConcurrentM > mtl*domains {
		t.Errorf("MaxConcurrentM = %d, cap is MTL x Domains = %d", st.MaxConcurrentM, mtl*domains)
	}
}

// TestStressDomainGateInvariant is the sharded analogue of
// TestStressStaticMTLInvariant: with 128 workers, 4 domains and a
// per-domain MTL of 2, no domain's observed memory concurrency may
// ever exceed 2 — workers take jobs from remote domains' rings but an
// admission must still charge the job's home domain. Run with -race.
func TestStressDomainGateInvariant(t *testing.T) {
	const (
		workers = 128
		domains = 4
		mtl     = 2
		pairs   = 400
	)
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: mtl, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		ps, peaks := domainTrackedPairs(pairs, domains, 500)
		st, err := rt.Run(ps)
		if err != nil {
			t.Fatal(err)
		}
		for d := range peaks {
			if got := atomic.LoadInt64(&peaks[d]); got > mtl {
				t.Fatalf("round %d: domain %d observed %d concurrent memory tasks, per-domain MTL is %d",
					round, d, got, mtl)
			}
			if st.Domains[d].PeakActive > mtl {
				t.Fatalf("round %d: domain %d PeakActive = %d, per-domain MTL is %d",
					round, d, st.Domains[d].PeakActive, mtl)
			}
		}
		if st.CompletedPairs != pairs {
			t.Fatalf("round %d: completed %d of %d pairs", round, st.CompletedPairs, pairs)
		}
	}
}

// TestStressCrossDomainStealNoLossNoDup homes every pair in domain 0
// while the worker pool spans 4 domains, forcing the off-home workers
// to live entirely off remote takes. Every task must run
// exactly once: a lost job hangs the phase (test timeout), a
// duplicated one trips the per-pair execution counters.
func TestStressCrossDomainStealNoLossNoDup(t *testing.T) {
	const (
		workers = 64
		domains = 4
		pairs   = 300
	)
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: 4, Domains: domains,
		Domain: func(pair int) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	memRuns := make([]int32, pairs)
	compRuns := make([]int32, pairs)
	ps := make([]Pair, pairs)
	for i := range ps {
		ps[i] = Pair{
			Memory:  func() { atomic.AddInt32(&memRuns[i], 1); busy(300) },
			Compute: func() { atomic.AddInt32(&compRuns[i], 1); busy(100) },
		}
	}
	st, err := rt.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pairs; i++ {
		if n := atomic.LoadInt32(&memRuns[i]); n != 1 {
			t.Fatalf("pair %d memory task ran %d times", i, n)
		}
		if n := atomic.LoadInt32(&compRuns[i]); n != 1 {
			t.Fatalf("pair %d compute task ran %d times", i, n)
		}
	}
	if st.CompletedPairs != pairs {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
	if st.Domains[0].Pairs != pairs {
		t.Fatalf("domain 0 homed %d pairs, want all %d", st.Domains[0].Pairs, pairs)
	}
	for d := 1; d < domains; d++ {
		if st.Domains[d].Pairs != 0 {
			t.Fatalf("domain %d homed %d pairs, want 0", d, st.Domains[d].Pairs)
		}
	}
}

// TestStressMixedDomainPhases256 drives 256 workers over back-to-back
// phases of wildly different sizes on a 4-domain runtime, mixing the
// static and default home rules, so parked workers from a wide phase
// meet the next tiny phase's seeding. Completion of every phase is the
// assertion; -race checks the ordering claims.
func TestStressMixedDomainPhases256(t *testing.T) {
	rt, err := New(Config{Workers: 256, Policy: Static, MTL: 2, Domains: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sizes := []int{200, 1, 3, 64, 1, 128, 2, 1, 5, 32}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for round, n := range sizes {
		ps, peaks := domainTrackedPairs(n, 4, 200)
		st, err := rt.Run(ps)
		if err != nil {
			t.Fatalf("round %d (n=%d): %v", round, n, err)
		}
		if st.CompletedPairs != n {
			t.Fatalf("round %d: completed %d of %d pairs", round, st.CompletedPairs, n)
		}
		for d := range peaks {
			if got := atomic.LoadInt64(&peaks[d]); got > 2 {
				t.Fatalf("round %d: domain %d observed %d concurrent memory tasks, per-domain MTL is 2",
					round, d, got)
			}
		}
	}
}

// TestStressDynamicWithDomains runs the adaptive controller on a
// sharded runtime: the decided limit applies per domain, so the
// observed global concurrency must stay within maxDecided x Domains
// and each domain within maxDecided.
func TestStressDynamicWithDomains(t *testing.T) {
	const (
		workers = 96
		domains = 2
		pairs   = 300
	)
	rt, err := New(Config{Workers: workers, Policy: Dynamic, W: 8, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ps, peaks := domainTrackedPairs(pairs, domains, 500)
	st, err := rt.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	maxDecided := workers
	for _, d := range st.MTLDecisions {
		if d > maxDecided {
			maxDecided = d
		}
	}
	for d := range peaks {
		if got := atomic.LoadInt64(&peaks[d]); got > int64(maxDecided) {
			t.Fatalf("domain %d observed %d concurrent memory tasks, largest decided limit is %d",
				d, got, maxDecided)
		}
	}
	if st.MaxConcurrentM > maxDecided*domains {
		t.Fatalf("MaxConcurrentM = %d, cap is limit x Domains = %d", st.MaxConcurrentM, maxDecided*domains)
	}
	if st.CompletedPairs != pairs {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
}

// TestRunAdmitsInSubmissionOrder pins Run's admission
// order: with one domain, a static MTL of 1 and no scatter, memory
// tasks start strictly in pair order however many workers compete.
func TestRunAdmitsInSubmissionOrder(t *testing.T) {
	rt, err := New(Config{Workers: 16, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const pairs = 300
	var mu sync.Mutex
	order := make([]int, 0, pairs)
	ps := make([]Pair, pairs)
	for i := range ps {
		ps[i] = Pair{
			Memory: func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				busy(200)
			},
			Compute: func() { busy(400) },
		}
	}
	if _, err := rt.Run(ps); err != nil {
		t.Fatal(err)
	}
	for k, i := range order {
		if i != k {
			t.Fatalf("memory task %d started in position %d: order %v", i, k, order[:k+1])
		}
	}
	if len(order) != pairs {
		t.Fatalf("%d of %d memory tasks ran", len(order), pairs)
	}
}
