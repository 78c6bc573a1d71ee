# Tier-1 gate for the memthrottle reproduction. `make check` is what CI
# (and any pre-merge hand check) runs: formatting, vet, a full build,
# and the test suite under the race detector — load-bearing now that
# the experiment run engine (internal/parallel) is concurrent.

GO ?= go

# Benchmarks pinned against the committed BENCH_SIM.json baseline
# (captured on the pre-optimization tree, so the reported speedup is
# the zero-allocation hot path's win). -count repeats each benchmark;
# benchdiff keeps the best run of each.
BENCH_COUNT ?= 3
HOT_BENCHES  = BenchmarkDRAMAccess|BenchmarkStreamPump|BenchmarkCalibrate|BenchmarkCalibrateWarm|BenchmarkCalibrateAdjacentCold|BenchmarkFig13Sweep

# Host-runtime dispatch benchmarks, pinned against the pre-rewrite
# mutex-and-broadcast runtime so the lock-free gate/ring win stays
# measured. The 8/32 variants guard the unsharded (Domains=1) dispatch
# path; 64 runs 2 memory domains and 128/256 run 4, pinning the
# sharded-gate scaling past the old single-gate plateau; the
# Domains64x* trio holds workers at 64 and varies only the domain
# count.
HOST_BENCHES = BenchmarkHostRuntimeThroughput|BenchmarkHostRuntimeThroughput8|BenchmarkHostRuntimeThroughput32|BenchmarkHostRuntimeThroughput64|BenchmarkHostRuntimeThroughput128|BenchmarkHostRuntimeThroughput256|BenchmarkHostRuntimeThroughput512|BenchmarkHostRuntimeDomains64x1|BenchmarkHostRuntimeDomains64x2|BenchmarkHostRuntimeDomains64x4|BenchmarkMpmcRingContended|$(SERVE_BENCHES)

# Open-loop serving benchmarks: sustained Submit->Drain throughput at
# 64/128/256 workers with batched admission (BenchmarkHostServe*) and
# the per-job-admission baseline (BenchmarkHostServePerJob*, AdmitBatch
# 1). Both families are pinned in BENCH_SIM.json so the batched pump's
# amortisation win stays measured and neither path regresses.
SERVE_BENCHES = BenchmarkHostServe64|BenchmarkHostServe128|BenchmarkHostServe256|BenchmarkHostServePerJob64|BenchmarkHostServePerJob128|BenchmarkHostServePerJob256|BenchmarkGateAdmitBatched|BenchmarkGateAdmitPerJob

# Parallel-simulation benchmarks: the timing-wheel event queue against
# the binary-heap engine at matched depths (EngineStep* in
# internal/sim) and the window-parallel sharded-domain harness against
# its serial twin (DomainSim* in internal/mem). Pinned in
# BENCH_SIM.json so the wheel's O(1) step and the lookahead-window
# speedup stay measured.
SIM_BENCHES  = BenchmarkEngineStep|BenchmarkEngineStepWheel|BenchmarkEngineStepDeep256|BenchmarkEngineStepWheelDeep256
SIM_PAR_BENCHES = BenchmarkDomainSimSerial2|BenchmarkDomainSimSerial4|BenchmarkDomainSimParallel2|BenchmarkDomainSimParallel4

# Policy-plugin benchmarks: the PolicyThrottler window boundary —
# per-class aggregation, signal harvest, Observe, decision publish —
# must stay allocation-free, or every W pairs the scheduler hot path
# pays a GC tax the legacy controllers never did.
CORE_BENCHES = BenchmarkPolicyObserve

# Contended-counter microbenchmarks: a single shared atomic counter vs
# per-writer slots packed on shared lines vs the cache-line-padded
# stripes the host runtime's hot-path counters use (internal/stats
# PaddedInt64). The spread is the false-sharing cost the striping pass
# removed; on a single-CPU runner the three coincide.
CONTEND_BENCHES = BenchmarkContendedCounterGlobal|BenchmarkContendedCounterSharedLines|BenchmarkContendedCounterStriped

# Benchmarks pinned allocation-free by `make bench-check`: the
# zero-allocation hot paths from the PR 2 work must never regrow an
# alloc, the warm Calibrator's adjacent re-measure joins them, and the
# serving-path admission primitives, the policy-plugin window boundary
# and the timing-wheel engine step stay allocation-free too.
ZERO_ALLOC   = BenchmarkEngineStep,BenchmarkEngineStepWheel,BenchmarkDRAMAccess,BenchmarkStreamPump,BenchmarkGateAdmitBatched,BenchmarkGateAdmitPerJob,BenchmarkPolicyObserve

# BENCH_RUN is one `go test -bench` invocation (the pattern and the
# package follow); BENCH_ALL runs every pinned family through it.
# bench, bench-baseline and bench-check pipe BENCH_ALL into benchdiff.
BENCH_RUN = $(GO) test -run '^$$' -benchmem -count $(BENCH_COUNT) -bench
BENCH_ALL = { $(BENCH_RUN) '^($(SIM_BENCHES))$$' ./internal/sim; \
	$(BENCH_RUN) '^($(SIM_PAR_BENCHES))$$' ./internal/mem; \
	$(BENCH_RUN) '^($(CORE_BENCHES))$$' ./internal/core; \
	$(BENCH_RUN) '^($(CONTEND_BENCHES))$$' ./internal/stats; \
	$(BENCH_RUN) '^($(HOT_BENCHES))$$' .; \
	$(BENCH_RUN) '^($(HOST_BENCHES))$$' ./host; }

.PHONY: check lint fmt vet layout build test perfbench race bench bench-host bench-baseline bench-check

check: lint build test perfbench race

# lint is the static gate on its own: formatting, go vet, and the
# cache-line layout assertions over the dispatch hot structs.
lint: fmt vet layout

# layout is the in-repo field-alignment gate: TestLayout* pins (via
# unsafe.Offsetof/Sizeof) that every padded hot-path struct keeps its
# CAS-hot and read-mostly fields on distinct 64-byte lines, so an
# innocent field addition cannot silently reintroduce false sharing.
layout:
	$(GO) test -run 'TestLayout|TestPaddedInt64Stride' ./host ./internal/stats

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a nested module (it replaces memthrottle with ../), so
# the root build and test never compile it; vet and test it on its own
# so an API change that breaks the benchmark fails the gate.
perfbench:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# The race pass re-runs the concurrency-heavy packages — the host
# runtime (the dispatch core's worker pool, admission rings and pump,
# gate, parking lot, watchdog, cancellation, chaos suite, and the host
# stress suite: TestStress* oversubscribes the gate with hundreds of
# workers and hunts lost wakeups across back-to-back 1-pair Run
# sessions, and TestStressServe* races concurrent Submit against Drain
# and live MTL moves through the same rings at 128-160 workers) and the parallel run engine — under the race
# detector, plus the persistent result cache's concurrent-writer
# suite (shared by mtlbench -j fan-outs). The rest of the tree is
# single-goroutine simulation already covered by `test`.
# RobustnessR2 joins the race pass as the adversarial stress: it fans
# the 15-cell attack grid across 4 workers through parallel.Map while
# each cell drives the class-aware PolicyThrottler (atomic limit and
# blacklist publication against concurrent readers). The parallel-sim
# suites run here too: the window-group barrier protocol (TestGroup*),
# the sharded-domain harness identity (TestDomainSim*) and the SimPar
# serial-equality properties all drive per-domain engines on concurrent
# goroutines with cross-engine posts.
race:
	$(GO) test -race ./host/... ./internal/parallel/...
	$(GO) test -race -run 'DiskCache|Cached|RobustnessR2' ./internal/experiments
	$(GO) test -race -run 'TestGroup|TestWheel|TestDomainSim|TestSimPar' ./internal/sim ./internal/mem ./internal/simsched

# bench runs the simulator hot-path benchmarks and reports deltas
# against the committed baseline. bench-baseline rewrites the baseline
# from a fresh run (do this only when intentionally re-pinning).
bench:
	@$(BENCH_ALL) \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json

# bench-host runs only the host-runtime dispatch benchmarks against the
# committed baseline — the quick loop when iterating on the scheduler.
bench-host:
	@$(BENCH_RUN) '^($(HOST_BENCHES))$$' ./host \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json

bench-baseline:
	@$(BENCH_ALL) \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json -write -note "$(NOTE)"

# bench-check is the regression gate: same benchmarks as `bench`, but
# benchdiff exits nonzero on a >15% ns/op regression against the
# committed baseline or on any allocation in the pinned zero-alloc
# benchmarks.
bench-check:
	@$(BENCH_ALL) \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json -check -max-regress 0.15 -zero-alloc '$(ZERO_ALLOC)'

# bench-all is the original full benchmark sweep (every paper artifact).
bench-all:
	$(GO) test -bench=. -benchmem
