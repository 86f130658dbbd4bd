package conformance

import (
	"fmt"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/prefetch"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// sweepMachine is a deliberately small single-core system so the sweep
// matrix stays fast: pseudo-LRU private levels (exercising the tree
// policy in the fused engine's private-level fast paths) under a 32KB
// 8-way L3 with the policy under test.
func sweepMachine(policy cache.PolicyKind, pf bool) machine.Config {
	cfg := machine.NehalemConfig()
	cfg.Cores = 1
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.PseudoLRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.PseudoLRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 32 << 10, Ways: 8, LineSize: 64, Policy: policy}
	if pf {
		cfg.NewPrefetcher = func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamConfig{Streams: 4, Degree: 2, Confirm: 2})
		}
	} else {
		cfg.NewPrefetcher = nil
	}
	return cfg
}

// sweepTestTrace mixes reads and writes over a span larger than the
// L3, with enough leading instructions per record to exercise the
// chunked (StepChunk) retirement path the fused engine mirrors.
func sweepTestTrace(n int) *trace.Trace {
	src := workload.TraceSource{Gen: workload.NewRandomAccess(workload.RandomConfig{
		Name: "mix", Span: 48 << 10, NInstr: 70, WriteFrac: 0.3, Seed: 7,
	})}
	return trace.Capture(src, n)
}

// TestSweepEquivalenceMatrix pits the fused engine against the
// per-size oracle across every replacement policy, both sweep modes,
// warm and cold measurement, and serial vs parallel size partitioning.
func TestSweepEquivalenceMatrix(t *testing.T) {
	tr := sweepTestTrace(4000)
	policies := []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random}
	for _, policy := range policies {
		for _, mode := range []simulate.SweepMode{simulate.ByWays, simulate.BySets} {
			var sizes []int64
			switch {
			case mode == simulate.ByWays && policy == cache.PseudoLRU:
				// Pseudo-LRU needs power-of-two ways.
				sizes = []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10}
			case mode == simulate.BySets:
				// 24 KB is 48 sets: the modulo arm of the set index.
				sizes = []int64{8 << 10, 16 << 10, 24 << 10, 32 << 10}
			}
			for _, noWarm := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%v/%v/noWarm=%v/j%d", policy, engineModeName(mode), noWarm, workers)
					t.Run(name, func(t *testing.T) {
						cfg := simulate.Config{
							Machine: sweepMachine(policy, false),
							Sizes:   sizes,
							Mode:    mode,
							NoWarm:  noWarm,
							Workers: workers,
						}
						if err := CheckSweepEquivalence(cfg, tr); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestSweepEquivalenceWithPrefetcher repeats the check with a stream
// prefetcher attached, in both sweep modes: prefetch training happens
// per replica in the fused engine (each size sees a different miss
// stream), which this pins against per-size machines.
func TestSweepEquivalenceWithPrefetcher(t *testing.T) {
	tr := sweepTestTrace(4000)
	for _, policy := range []cache.PolicyKind{cache.Nehalem, cache.LRU} {
		for _, mode := range []simulate.SweepMode{simulate.ByWays, simulate.BySets} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%v/j%d", policy, workers)
				var sizes []int64 // ByWays: one per way
				if mode == simulate.BySets {
					name = fmt.Sprintf("%v/bysets/j%d", policy, workers)
					sizes = []int64{8 << 10, 24 << 10, 32 << 10}
				}
				t.Run(name, func(t *testing.T) {
					cfg := simulate.Config{
						Machine: sweepMachine(policy, true),
						Sizes:   sizes,
						Mode:    mode,
						Workers: workers,
					}
					if err := CheckSweepEquivalence(cfg, tr); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func engineModeName(m simulate.SweepMode) string {
	if m == simulate.ByWays {
		return "byways"
	}
	return "bysets"
}
