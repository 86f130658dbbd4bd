# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: build test test-short test-parallel check-inline bench bench-quick bench-kernel bench-sweep bench-trace bench-analytic bench-lint vet fmt experiments examples cover fuzz staticcheck lint clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Full test suite (a few minutes: includes integration tests and the
# quick-scale run of every experiment).
test:
	$(GO) test ./...

# Seconds-scale subset for CI.
test-short:
	$(GO) test -short ./...

# Regenerate every paper table/figure as benchmarks (full scale; long).
bench:
	$(GO) test -bench=. -benchmem ./...

# Quick-scale benchmark sweep.
bench-quick:
	$(GO) test -short -bench=. -benchmem ./...

# Hot-path kernel benchmarks: the single-pass cache access kernel and
# its set kernels (pseudo-LRU touch/victim, tag match), the flattened
# hierarchy walk (HierarchyAccess, ...Resident, ...Scan: its longest
# path), the machine step loop alone and under the Pirate co-run's step
# mix (MachineCoRun), the serial sweep, and the stack-distance analyzer.
bench-kernel:
	$(GO) test -run XXX -bench 'Sweep|Machine|Analyze|CacheAccess|Hierarchy|PLRUTouchVictim|FindWay' -benchmem ./...

# Inlining guard: every hierarchy walk open-codes its policy dispatch on
# the promise that these leaves inline into it (DESIGN.md §8, "Set
# kernels"), and the machine's step loop unpacks the walk's outcome word
# through the PackedOutcome accessors. An edit that pushes one over the
# compiler's budget turns it into a call per level per record; fail
# here, not as benchmark drift. Names are as `-gcflags=-m=2` prints them.
INLINE_LEAVES = '(*Cache).setFor' '(*Cache).plruTouch' '(*Cache).nehalemTouch' \
	'(*Cache).plruVictim' '(*Cache).nehalemVictim' \
	PackedOutcome.ServedBy PackedOutcome.PrefetchHit PackedOutcome.L3Uses \
	PackedOutcome.ReadLines PackedOutcome.WriteLines
check-inline:
	@out=$$($(GO) build -gcflags=-m=2 ./internal/cache 2>&1); ok=; \
	for f in $(INLINE_LEAVES); do \
		echo "$$out" | grep -qF "can inline $$f with cost" || \
			{ echo "check-inline: $$f no longer inlines:"; echo "$$out" | grep -F " $$f:"; exit 1; }; \
		ok="$$ok $$f"; \
	done; echo "check-inline:$$ok inline"

# Fused vs per-size sweep, per L3 policy by ways and once by sets, on
# the acceptance workload (60k records x 16 sizes). Numbers are recorded
# in BENCH_fusedsweep.json; the fused engine must stay >= 2x by ways
# (by sets it reads ~1.9x: most set indices are a modulo, not a mask).
# The fits / overflows lines are the footprint probe on the Nehalem
# machine: what a sweep costs when every size clones the largest, and
# when none does (the probe then costs one extra group decode).
bench-sweep:
	$(GO) test -run XXX -bench 'BenchmarkSweepFused|BenchmarkSweepPerSize' \
		-benchtime 4x -count 2 -benchmem ./internal/simulate/

# Analytic fast path vs exact Mattson on the acceptance workload at
# both trace scales. Numbers are recorded in BENCH_analytic.json; the
# sampled analytic curve must stay >= 10x over exact Mattson at the
# SHARDS paper-standard rate (R=0.001, 600k records). Compare ratios
# within one invocation only — the boxes are noisy.
bench-analytic:
	$(GO) test -run XXX -bench 'BenchmarkMattsonExact|BenchmarkAnalyticCurve|BenchmarkAnalyticStream' \
		-benchtime 30x -count 5 -benchmem ./internal/simulate/

# Multi-core replay conformance under the race detector: the parallel
# reader vs sync oracle, the decode pipeline, and the sweep-width
# equivalence matrix.
test-parallel:
	$(GO) test -race -run 'Parallel|Pipe' \
		./internal/trace/ ./internal/runner/ ./internal/conformance/

# Streaming trace pipeline: v2 frame decode (workload and sparse
# corpus), the v1 baseline, whole-trace decode and the encoder.
# Numbers are recorded in BENCH_trace.json; the v2 streaming decode
# must hold >= 100M records/sec on the workload-shaped corpus.
bench-trace:
	$(GO) test -run XXX -bench 'DecodeV2|DecodeV1|EncodeV2' \
		-benchtime 2s -count 3 -benchmem ./internal/trace/

# Print every paper table/figure plus extensions and ablations.
experiments:
	$(GO) run ./cmd/experiments all

# Smoke-run every example.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/throughput-scaling
	$(GO) run ./examples/simulator-validation
	$(GO) run ./examples/prefetch-study
	$(GO) run ./examples/bandwidth-bandit
	$(GO) run ./examples/multithreaded-target

cover:
	$(GO) test -cover ./...

# Fuzz every target for FUZZTIME each (seeded from the checked-in
# corpora under testdata/fuzz/). Failing inputs land in testdata/fuzz/
# and replay deterministically with `go run ./cmd/conformance replay`.
# FuzzHierarchy's executions are differential replays (two hierarchy
# implementations, two back-invalidation modes), so its input minimiser
# is capped: the default 60s per find would swallow a short campaign.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz '^FuzzKernel$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/conformance
	$(GO) test -fuzz '^FuzzHierarchy$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s -run '^$$' ./internal/conformance
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace
	$(GO) test -fuzz '^FuzzSampledProfile$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/stackdist

# Fetches staticcheck via the toolchain; the module itself stays
# stdlib-only.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# Full static-analysis gate: vet, staticcheck, and the repo's custom
# analyzer suite (detrand, hotalloc, counterpair, errcheckdomain plus
# the CFG/dataflow analyzers lockguard, ctxpoll, leakcheck — see
# DESIGN.md §10 and §15). Any finding fails the build.
lint: vet staticcheck
	$(GO) run ./cmd/lint ./...

# Analyzer-suite throughput over the whole module: packages/sec for a
# full 7-analyzer pass, recorded in BENCH_lint.json. diagnostics must
# be 0 — the tree lints clean by construction.
bench-lint:
	$(GO) run ./cmd/lint -benchjson BENCH_lint.json ./...

# Remove build and profiling droppings. Nothing under version control
# matches these patterns — CI asserts `git ls-files` is binary-free.
clean:
	find . -name '*.test' -o -name '*.out' -o -name '*.prof' | xargs -r rm -f
