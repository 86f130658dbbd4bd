package conformance

import (
	"math"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/simulate"
	"cachepirate/internal/workload"
)

// TestMicroseqLRUOracle is the cyclic half of an oracle no engine owns
// (ROADMAP item 17): microseq walks 6 MB cyclically, 12 lines to each
// set of the Nehalem L3, and an LRU set of fewer than 12 ways evicts
// every line before its next use, while one of 12 or more keeps them
// all. So under LRU, with the prefetcher off and a warm pass, every
// size below 6 MB misses exactly as the 0.5 MB size does, by ways and
// by sets, and every size from 6 MB up never misses. A failure is a
// finding for EXPERIMENTS.md, not a bound to loosen.
func TestMicroseqLRUOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 200k records through 16 Nehalem-sized replicas, twice")
	}
	tr := simulate.CaptureTrace(workload.MustByName("microseq").New, 1, 0, 200_000)
	for _, mode := range []simulate.SweepMode{simulate.ByWays, simulate.BySets} {
		cfg := simulate.Config{Machine: machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), cache.LRU), Mode: mode, Workers: 2}
		curve, err := simulate.Sweep(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		small := curve.Points[0]
		if small.CacheBytes != 512<<10 || small.MissRatio < 0.9 {
			t.Fatalf("by %v: the smallest point is %+v, want 0.5 MB missing nearly always", mode, small)
		}
		for _, p := range curve.Points {
			switch {
			case p.CacheBytes < 6<<20:
				if math.Float64bits(p.MissRatio) != math.Float64bits(small.MissRatio) || math.Float64bits(p.FetchRatio) != math.Float64bits(small.FetchRatio) {
					t.Errorf("by %v, %d KB: miss ratio %v and fetch ratio %v, want the 0.5 MB point's %v and %v", mode, p.CacheBytes>>10, p.MissRatio, p.FetchRatio, small.MissRatio, small.FetchRatio)
				}
			case p.MissRatio != 0:
				t.Errorf("by %v, %d KB: miss ratio %v, want 0", mode, p.CacheBytes>>10, p.MissRatio)
			}
		}
	}
}
