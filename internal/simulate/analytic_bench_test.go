package simulate

import (
	"fmt"
	"testing"

	"cachepirate/internal/trace"
)

// benchAnalyticLengths are the two trace scales: the 60k-record
// BenchmarkSweepFused trace, where the analytic estimator's fixed
// per-curve cost (profiler construction, grid build, curve evaluation)
// is still visible, and a 10x longer
// capture of the same workload, where both passes are stream-bound and
// the per-record ratio (one hash+compare vs one per-set stack walk)
// dominates.
var benchAnalyticLengths = []int{60000, 600000}

func benchAnalyticTrace(n int) *trace.Trace {
	return CaptureTrace(randFactory(64<<10), 1, 0, n)
}

// BenchmarkMattsonExact is BenchmarkAnalyticCurve's baseline: the
// exact per-set Mattson pass over the 16-size default grid — one
// per-set LRU stack walk per access.
func BenchmarkMattsonExact(b *testing.B) {
	for _, n := range benchAnalyticLengths {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			tr := benchAnalyticTrace(n)
			cfg := lruSweepConfig(EngineMattson)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(cfg, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyticCurve measures the analytic estimator on the same
// workload and size grid, across the sampling modes: exact
// degeneration (rate 1.0, the correctness anchor — slower than
// Mattson, whose bounded per-set stacks beat a full splay tree), the
// product-default fixed-rate SHARDS (~10x faster than Mattson at
// 600k records), and the fixed-size O(1)-memory mode.
func BenchmarkAnalyticCurve(b *testing.B) {
	modes := []struct {
		name string
		rate float64
		size int
	}{
		{"rate-1.0-exact", 1, 0},
		{"rate-0.1", 0.1, 0},
		{"rate-0.01", 0.01, 0},
		{"rate-0.001", 0.001, 0}, // the SHARDS paper's standard rate
		{"fixed-256", 0, 256},
	}
	for _, n := range benchAnalyticLengths {
		tr := benchAnalyticTrace(n)
		for _, m := range modes {
			b.Run(fmt.Sprintf("n%d/%s", n, m.name), func(b *testing.B) {
				cfg := lruSweepConfig(EngineAnalytic)
				cfg.SampleRate = m.rate
				cfg.SampleSize = m.size
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Sweep(cfg, tr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAnalyticStream measures the full out-of-core product path:
// profile a streamed BlockSource at the product-default sampling rate
// and evaluate the 16-point curve. With a fixed-size cap instead of a
// rate this is the hard-O(1)-memory configuration however long the
// stream runs (TestSampledFixedSizeBounds pins the bound).
func BenchmarkAnalyticStream(b *testing.B) {
	tr := benchAnalyticTrace(60000)
	cfg := lruSweepConfig(EngineAnalytic)
	cfg.SampleRate = 0.01
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepStream(cfg, replayer(tr)); err != nil {
			b.Fatal(err)
		}
	}
}
