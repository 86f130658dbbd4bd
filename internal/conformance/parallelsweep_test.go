package conformance

import (
	"fmt"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/simulate"
)

// TestParallelSweepEquivalenceMatrix is the multi-core replay gate:
// every replacement policy, warm and cold, across sweep widths (2 =
// two groups of two sizes, 3 = uneven groups, 4 = one size per group
// at the small matrix geometry) and decode widths, way-shrunk and (at
// widths 2 and 3) set-shrunk. Each cell pins four curves to
// bit-identity: serial fused (oracle), wide in-memory, wide over the
// sync streaming Reader, wide over the ParallelReader — at each
// footprint of sweepSpans, because how much a wide sweep clones depends
// on which groups start before the footprint probe is done: the serial
// sweep clones every fit, a wide one anything from none to all of them,
// and the curves may not tell.
func TestParallelSweepEquivalenceMatrix(t *testing.T) {
	traces := spanTraces(4000)
	policies := []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random}
	for _, policy := range policies {
		for _, mode := range []simulate.SweepMode{simulate.ByWays, simulate.BySets} {
			sizes := []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10} // power-of-two ways for PseudoLRU
			widths := []int{2, 3, 4}
			if mode == simulate.BySets {
				sizes = []int64{4 << 10, 8 << 10, 12 << 10, 24 << 10, 32 << 10} // 24 and 48 sets: modulo indexing
				widths = []int{2, 3}
			}
			for _, noWarm := range []bool{false, true} {
				for _, shards := range widths {
					decode := 2
					if shards == 4 {
						decode = 4
					}
					name := fmt.Sprintf("%v/noWarm=%v/shards=%d/decode=%d", policy, noWarm, shards, decode)
					if mode == simulate.BySets {
						name = fmt.Sprintf("%v/bysets/noWarm=%v/shards=%d/decode=%d", policy, noWarm, shards, decode)
					}
					t.Run(name, func(t *testing.T) {
						cfg := simulate.Config{
							Machine: sweepMachine(policy, false),
							Sizes:   sizes,
							Mode:    mode,
							Engine:  simulate.EngineFused,
							NoWarm:  noWarm,
						}
						for i, sp := range sweepSpans {
							t.Run(sp.name, func(t *testing.T) {
								if err := CheckParallelSweepEquivalence(cfg, traces[i], 256, shards, decode); err != nil {
									t.Fatal(err)
								}
							})
						}
					})
				}
			}
		}
	}
}

// TestParallelSweepWithPrefetcher repeats one hot cell with a stream
// prefetcher attached: per-replica prefetch training must split into
// groups exactly like the cache state it rides on.
func TestParallelSweepWithPrefetcher(t *testing.T) {
	tr := sweepTestTrace(4000)
	cfg := simulate.Config{
		Machine: sweepMachine(cache.Nehalem, true),
		Mode:    simulate.ByWays,
		Engine:  simulate.EngineFused,
	}
	if err := CheckParallelSweepEquivalence(cfg, tr, 512, 3, 2); err != nil {
		t.Fatal(err)
	}
}
