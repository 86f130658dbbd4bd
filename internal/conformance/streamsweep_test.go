package conformance

import (
	"fmt"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/simulate"
)

// TestStreamSweepParity pins the acceptance invariant of the
// out-of-core pipeline: a streamed replay of a trace ≥ 10× larger than
// the decode block budget is bit-identical to the in-memory path. The
// 20k-record trace against 512-record frames puts ~40 frame
// boundaries inside every pass, across both sweep engines, warm and
// cold, serial and parallel, at each footprint of sweepSpans (a fused
// sweep that clones opens fewer streams, a proven group none).
func TestStreamSweepParity(t *testing.T) {
	traces := spanTraces(20000)
	const frameRecords = 512 // block budget; trace is 40× larger
	for _, engine := range []simulate.Engine{simulate.EngineFused, simulate.EnginePerSize} {
		for _, noWarm := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%v/noWarm=%v/j%d", engine, noWarm, workers)
				t.Run(name, func(t *testing.T) {
					cfg := simulate.Config{
						Machine:    sweepMachine(cache.Nehalem, false),
						Mode:       simulate.ByWays,
						Engine:     engine,
						WarmPasses: warmPasses(noWarm),
					}
					for i, sp := range sweepSpans {
						t.Run(sp.name, func(t *testing.T) {
							if err := CheckStreamEquivalence(cfg, traces[i], frameRecords, workers); err != nil {
								t.Fatal(err)
							}
						})
					}
				})
			}
		}
	}
}

// TestStreamSweepParityWithPrefetcher repeats the streamed check with
// a stream prefetcher: the miss stream that trains it must come out of
// the block decoder in exactly the order the in-memory replayer
// produces.
func TestStreamSweepParityWithPrefetcher(t *testing.T) {
	tr := sweepTestTrace(8000)
	cfg := simulate.Config{
		Machine: sweepMachine(cache.Nehalem, true),
		Mode:    simulate.ByWays,
	}
	if err := CheckStreamEquivalence(cfg, tr, 512, 2); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSweepEquivalenceMatrix is the multi-core replay gate:
// every replacement policy, warm and cold, across sweep widths (2 =
// two groups of two sizes, 3 = uneven groups, 4 = one size per group
// at the small matrix geometry), way-shrunk and (at widths 2 and 3)
// set-shrunk. Each cell pins three curves to bit-identity: serial
// fused (oracle), wide in-memory, wide over the streaming Reader — at each
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
					name := fmt.Sprintf("%v/noWarm=%v/shards=%d", policy, noWarm, shards)
					if mode == simulate.BySets {
						name = fmt.Sprintf("%v/bysets/noWarm=%v/shards=%d", policy, noWarm, shards)
					}
					t.Run(name, func(t *testing.T) {
						cfg := simulate.Config{
							Machine:    sweepMachine(policy, false),
							Sizes:      sizes,
							Mode:       mode,
							Engine:     simulate.EngineFused,
							WarmPasses: warmPasses(noWarm),
						}
						for i, sp := range sweepSpans {
							t.Run(sp.name, func(t *testing.T) {
								if err := CheckStreamEquivalence(cfg, traces[i], 256, shards); err != nil {
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
	if err := CheckStreamEquivalence(cfg, tr, 512, 3); err != nil {
		t.Fatal(err)
	}
}
