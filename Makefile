# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: build test test-short test-parallel test-race-short check-inline check-fma bench bench-quick vet fmt experiments cover fuzz staticcheck lint clean

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

# Every micro-benchmark (the paper's tables and figures are
# `make experiments`).
bench:
	$(GO) test -bench=. -benchmem ./...

# The same with -short.
bench-quick:
	$(GO) test -short -bench=. -benchmem ./...

# Inlining guard: every hierarchy walk open-codes its policy dispatch on
# the promise that these leaves inline into it (DESIGN.md §7, "Set
# kernels"), and the machine's step loop unpacks the walk's outcome word
# through the PackedOutcome accessors. An edit that pushes one over the
# compiler's budget turns it into a call per level per record; fail
# here, not as benchmark drift. The set-position helpers are the same
# promise: at and locate index a set in any layout (the fused walk's
# set-major replicas), own a stand-alone cache's set (the machine's
# walk), and FusedHierarchy.Line decodes a record once for every replica
# inside the fused record loops. The timing recurrence past L2
# (machine.Shared.Charge, DESIGN.md §7) is one call per such access and
# books its requests through the bandwidth server's Request and Backlog
# and Shared.WriteBack, which must inline into it. Names are as
# `-gcflags=-m=2` prints them; INLINE_PKGS are the packages they live in.
INLINE_PKGS = ./internal/cache ./internal/machine
INLINE_LEAVES = '(*Cache).setFor' '(*Cache).plruTouch' '(*Cache).nehalemTouch' \
	'(*Cache).plruVictim' '(*Cache).nehalemVictim' \
	'(*Cache).at' '(*Cache).locate' '(*Cache).own' '(*FusedHierarchy).Line' \
	PackedOutcome.ServedBy PackedOutcome.PrefetchHit PackedOutcome.L3Uses \
	PackedOutcome.ReadLines PackedOutcome.WriteLines \
	'(*Server).Request' '(*Server).Backlog' '(*Shared).WriteBack'
check-inline:
	@out=$$($(GO) build -gcflags=-m=2 $(INLINE_PKGS) 2>&1); ok=; \
	for f in $(INLINE_LEAVES); do \
		echo "$$out" | grep -qF "can inline $$f with cost" || \
			{ echo "check-inline: $$f no longer inlines:"; echo "$$out" | grep -F " $$f:"; exit 1; }; \
		ok="$$ok $$f"; \
	done; echo "check-inline:$$ok inline"

# Fused multiply-add guard: the Go spec lets the compiler fuse x*y + z
# into one instruction that rounds once instead of twice, which changes
# result bits. amd64 never fuses, so every pinned digest and curve was
# taken without it; these targets do fuse, so every such site rounds
# the product explicitly with float64(...). Cross-compiling is offline
# (no download), and the build cache replays the -S listing.
FMA_ARCHES = arm64 ppc64le s390x riscv64
check-fma:
	@for a in $(FMA_ARCHES); do \
		out=$$(GOARCH=$$a $(GO) build -gcflags=-S ./internal/... 2>&1) || { echo "$$out"; exit 1; }; \
		fused=$$(echo "$$out" | grep -E '[[:space:]]F(N)?M(ADD|SUB)'); \
		[ -z "$$fused" ] || { echo "check-fma: fused multiply-add on $$a:"; echo "$$fused"; exit 1; }; \
	done; echo "check-fma: no fused multiply-add on $(FMA_ARCHES)"

# The concurrency surface under the race detector, without -short: the
# decode-ahead reader (its tests pin GOMAXPROCS themselves), the
# conformance matrices (streamed sweeps at every width among them), the
# sweep engines, the analytic profilers and the worker pool; the curve
# server at GOMAXPROCS 1 and 4, so its goroutines share a multi-P
# scheduler whatever the host's core count; then the concurrent sweeps
# that share the pooled line-state backings, ten times over.
RACE_SERVER = ./internal/server/
RACE_PKGS = ./internal/trace/ ./internal/conformance/ ./internal/simulate/ \
	./internal/stackdist/ ./internal/analytic/ ./internal/runner/ $(RACE_SERVER)
test-parallel:
	$(GO) test -race $(filter-out $(RACE_SERVER),$(RACE_PKGS))
	GOMAXPROCS=1 $(GO) test -race -count=1 $(RACE_SERVER)
	GOMAXPROCS=4 $(GO) test -race -count=1 $(RACE_SERVER)
	$(GO) test -race -count 10 -run 'ConcurrentSweeps' ./internal/simulate/

# Every other package under the race detector, with -short. RACE_PKGS
# are left out: test-parallel runs them whole, and their -short runs
# only skip tests or replay a prefix of the same streams.
test-race-short:
	$(GO) test -race -short $$($(GO) list ./... | grep -vxF "$$($(GO) list $(RACE_PKGS))")

# Print every paper table/figure plus extensions and ablations.
experiments:
	$(GO) run ./cmd/experiments all

cover:
	$(GO) test -cover ./...

# Fuzz every target for FUZZTIME each, starting from the target's own
# f.Add seeds plus any crashers saved under testdata/fuzz/. Failing
# inputs land in testdata/fuzz/<target>/ and replay deterministically
# with `go test -run 'FuzzX/<file>'`.
# FuzzHierarchy's and FuzzFusedHierarchy's executions are differential
# replays (two hierarchy implementations, two back-invalidation modes;
# a replica family against one hierarchy per replica), so their input
# minimiser is capped: the default 60s per find would swallow a short
# campaign.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz '^FuzzKernel$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/conformance
	$(GO) test -fuzz '^FuzzHierarchy$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s -run '^$$' ./internal/conformance
	$(GO) test -fuzz '^FuzzFusedHierarchy$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s -run '^$$' ./internal/conformance
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace
	$(GO) test -fuzz '^FuzzSampledProfile$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/stackdist
	$(GO) test -fuzz '^FuzzParseJobSpec$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/server

# Fetches staticcheck via the toolchain; the module itself stays
# stdlib-only.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# Full static-analysis gate: vet, staticcheck, and the repo's custom
# analyzer suite (detrand, hotalloc, counterpair, errcheckdomain,
# lockguard, leakcheck — see DESIGN.md §9). Any finding fails the build,
# as does a //lint:ignore that names none of them.
lint: vet staticcheck
	$(GO) run ./cmd/lint ./...

# Remove build and profiling droppings. Nothing under version control
# matches these patterns — CI asserts `git ls-files` is binary-free.
clean:
	find . -name '*.test' -o -name '*.out' -o -name '*.prof' | xargs -r rm -f
