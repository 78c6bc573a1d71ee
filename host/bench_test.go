package host

import "testing"

// benchThroughput drives phases of small pairs through a Static-MTL
// runtime at the given worker and domain counts. The task bodies are
// deliberately tiny (2 KiB arrays, one compute pass) so the dispatch
// machinery — dequeue, MTL admission, worker wakeup — dominates the
// wall-clock, not memory bandwidth. These are the numbers the
// scalable-dispatch work is pinned against in BENCH_SIM.json: the
// worker count rises while the total work stays fixed, so any
// serialization in the dispatch path shows up directly as lost
// throughput. The per-domain MTL stays fixed at 2, so raising the
// domain count both widens admission (2 x domains memory tasks in
// flight) and shards the gate and queue hot words — the two effects the
// 32→64-worker plateau motivated.
func benchThroughput(b *testing.B, workers, domains int) {
	benchPhases(b, workers, domains, 2*1024, 1)
}

// benchPhases runs phases of 128 pairs over arrays of the given size
// whose compute tasks each make passes sweeps over their array.
func benchPhases(b *testing.B, workers, domains, bytes, passes int) {
	a, err := NewArraySet(128, bytes)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: 2, W: 8, Domains: domains})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, err := a.Pairs(passes)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Run(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// The 8/32-worker points stay on the unsharded runtime (regression
// guards for the Domains=1 path); 64 runs 2 domains and 128/256 run 4,
// the configurations the scaling claim is pinned against.
func BenchmarkHostRuntimeThroughput8(b *testing.B)   { benchThroughput(b, 8, 1) }
func BenchmarkHostRuntimeThroughput32(b *testing.B)  { benchThroughput(b, 32, 1) }
func BenchmarkHostRuntimeThroughput64(b *testing.B)  { benchThroughput(b, 64, 2) }
func BenchmarkHostRuntimeThroughput128(b *testing.B) { benchThroughput(b, 128, 4) }
func BenchmarkHostRuntimeThroughput256(b *testing.B) { benchThroughput(b, 256, 4) }
func BenchmarkHostRuntimeThroughput512(b *testing.B) { benchThroughput(b, 512, 4) }

// The Domains64x* points hold the worker count at 64 and vary only the
// domain count, isolating the sharding effect from worker scaling.
func BenchmarkHostRuntimeDomains64x1(b *testing.B) { benchThroughput(b, 64, 1) }
func BenchmarkHostRuntimeDomains64x2(b *testing.B) { benchThroughput(b, 64, 2) }
func BenchmarkHostRuntimeDomains64x4(b *testing.B) { benchThroughput(b, 64, 4) }

// The Compute64 point gives each pair a 16 KiB array and makes its
// compute task sweep it 16 times, so Tc is many times Tm and well past
// a worker wakeup: throughput then rests on compute tasks of different
// pairs overlapping each other and the gated memory tasks, which the
// tiny-pair points above barely exercise.
func BenchmarkHostRuntimeCompute64(b *testing.B) { benchPhases(b, 64, 2, 16*1024, 16) }
