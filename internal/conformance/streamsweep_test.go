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
						Machine: sweepMachine(cache.Nehalem, false),
						Mode:    simulate.ByWays,
						Engine:  engine,
						NoWarm:  noWarm,
						Workers: workers,
					}
					for i, sp := range sweepSpans {
						t.Run(sp.name, func(t *testing.T) {
							if err := CheckStreamEquivalence(cfg, traces[i], frameRecords); err != nil {
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
		Workers: 2,
	}
	if err := CheckStreamEquivalence(cfg, tr, 512); err != nil {
		t.Fatal(err)
	}
}
