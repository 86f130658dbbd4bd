package simulate

import (
	"context"
	"fmt"
	"math/bits"

	"cachepirate/internal/analysis"
	"cachepirate/internal/analytic"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/trace"
)

// analyticDepthFactor sizes the sampled histogram relative to the
// largest swept capacity: the Poisson set-associativity correction
// credits non-trivial hit probability well past the capacity in lines
// (P[Poisson(d/S) < W] decays around d ~ S*W, not at it), so the
// histogram tracks distances to 8x the largest size before folding
// into overflow, where the residual hit probability is < 1e-3 even at
// one way.
const analyticDepthFactor = 8

// analyticGrid maps the sweep's size grid to analytic geometries: the
// same shrink rules as every other engine (ByWays keeps sets and
// drops ways; BySets the converse), so the analytic curve answers the
// same question the reference sweep does.
func analyticGrid(cfg Config) ([]analytic.Geometry, int, error) {
	mcfgs, err := shrunkMachines(cfg)
	if err != nil {
		return nil, 0, err
	}
	grid := make([]analytic.Geometry, len(mcfgs))
	maxLines := 0
	for i, mcfg := range mcfgs {
		size := cfg.Sizes[i]
		grid[i] = analytic.Geometry{
			CacheBytes: size,
			Sets:       int(mcfg.L3.Sets()),
			Ways:       mcfg.L3.Ways,
		}
		maxLines = max(maxLines, int(size/cfg.Machine.L3.LineSize))
	}
	return grid, maxLines, nil
}

// analyticSampleConfig derives the profiler configuration from the
// sweep config: SampleRate/SampleSize select SHARDS fixed-rate or
// fixed-size mode; with neither set the profiler runs at rate 1.0,
// where SHARDS degenerates to the exact Mattson analysis.
func analyticSampleConfig(cfg Config, maxLines int) stackdist.SampledConfig {
	depth := maxLines * analyticDepthFactor
	if depth < 4096 {
		depth = 4096
	}
	rate := cfg.SampleRate
	if rate == 0 && cfg.SampleSize == 0 {
		rate = 1 // exact: SHARDS degenerates to the full Mattson pass
	}
	return stackdist.SampledConfig{
		Rate:        rate,
		MaxSampled:  cfg.SampleSize,
		Seed:        1,
		MaxDistance: depth,
		LineShift:   uint(bits.TrailingZeros64(uint64(cfg.Machine.L3.LineSize))),
	}
}

// AnalyticEstimate is the EngineAnalytic body, with the sampling
// metadata and per-point error bars the analysis.Curve shape drops:
// one SHARDS-sampled profiling pass over the stream (O(sample) time,
// O(1) memory — no replay per size, no trace materialised), polling
// ctx at block granularity, then a set-associativity-corrected
// threshold-model evaluation per size. SweepStreamContext with
// EngineAnalytic returns exactly its Curve(); cfg.Engine is ignored.
func AnalyticEstimate(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (est *analytic.CurveEstimate, err error) {
	cfg = cfg.withDefaults()
	grid, maxLines, err := analyticGrid(cfg)
	if err != nil {
		return nil, err
	}
	src, err := open()
	if err != nil {
		return nil, err
	}
	defer closeSource(src, &err)
	prof, err := analytic.ProfileSource(withContext(ctx, src), analyticSampleConfig(cfg, maxLines))
	if err != nil {
		return nil, err
	}
	if prof.Hist.Records == 0 {
		return nil, fmt.Errorf("simulate: empty trace")
	}
	return prof.Estimate(grid)
}

// AnalyticCurveStream is SweepStream with EngineAnalytic. Kept only
// because the benchmark harness under bench/ calls it.
func AnalyticCurveStream(cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	cfg.Engine = EngineAnalytic
	return SweepStream(cfg, open)
}
