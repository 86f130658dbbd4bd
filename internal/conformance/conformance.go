// Package conformance is the property-based verification layer of the
// simulator: it generates randomized machine configurations and
// access/fill/invalidate streams, replays them through the optimised
// SoA cache kernel and the retained array-of-structs Reference oracle
// (internal/cache/reference.go) — single caches op for op, and whole
// multicore hierarchies walk for walk, cache.Hierarchy against the
// helper-composed RefHierarchy built from Reference levels — and checks
// machine-wide invariants that must hold for *any* operation stream:
//
//   - per-level, per-owner counter conservation (hits + misses ==
//     accesses, prefetch subsets, evictions + resident <= fills);
//   - fetches >= demand misses at the shared L3 (every demand miss
//     fills; prefetches only add);
//   - residency <= capacity, per set and in total;
//   - L3 inclusivity after back-invalidation (no private-level line
//     the L3 does not hold);
//   - event-clock monotonicity of the machine scheduler.
//
// On top of the invariants sit metamorphic properties taken from the
// paper's method (conformance_test.go, metamorphic_test.go): LRU miss
// counts are monotonically non-increasing as associativity grows (the
// Mattson inclusion property behind Fig. 3), a Target co-run against a
// Pirate stealing w ways matches a solo run on a machine with w fewer
// L3 ways (§II-A — the whole premise of Cache Pirating), and
// stack-distance-predicted miss ratios agree with simulated
// single-core LRU runs (the paper's reference [6] model).
//
// The same streams drive native Go fuzzing (fuzz_test.go): FuzzKernel
// and FuzzHierarchy decode arbitrary bytes into bounded configs and op
// streams, with seed corpora under testdata/fuzz/. A failing input is
// reproducible outside the fuzzer with `conformance replay <file>`
// (cmd/conformance), which re-runs the stream deterministically,
// minimizes it with Minimize, and prints the divergence report.
//
// The adversarial stream patterns (single-set hammering, ping-pong
// eviction duels) follow the shared-cache DoS literature (Bechtel &
// Yun): they drive the replacement and writeback paths far from the
// happy path that performance-oriented PRs tune for.
package conformance
