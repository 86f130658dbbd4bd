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
// one way. The histogram is sparse, so the depth costs no memory up
// front.
const analyticDepthFactor = 8

// analyticGrid maps the sweep's size grid to analytic geometries: the
// same shrink rules as every other engine (ByWays keeps sets and
// drops ways; BySets the converse), so the analytic curve answers the
// same question the reference sweep does.
func analyticGrid(cfg Config) ([]analytic.Geometry, int) {
	mcfgs := shrunkMachines(cfg)
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
	return grid, maxLines
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
// EngineAnalytic returns exactly its Curve(); cfg.Engine is ignored,
// and cfg is validated as EngineAnalytic's.
func AnalyticEstimate(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (est *analytic.CurveEstimate, err error) {
	cfg.Engine = EngineAnalytic
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	grid, maxLines := analyticGrid(cfg)
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
	if prof.Hist.Sampled == 0 {
		return nil, &EmptySampleError{Rate: prof.Hist.Rate, Records: prof.Hist.Records}
	}
	return prof.Estimate(grid)
}

// EmptySampleError is AnalyticEstimate's verdict on a stream of which
// no access passed the SHARDS filter. With no sample the histogram
// holds no mass, and the model would read it as a cache that never
// misses.
type EmptySampleError struct {
	Rate    float64 // the sampling rate in effect
	Records uint64  // the records the stream held
}

func (e *EmptySampleError) Error() string {
	return fmt.Sprintf("simulate: no access of the %d records passed the SHARDS filter at sample rate %.4g; raise the rate or set a sample size", e.Records, e.Rate)
}

// AnalyticCurveStream is SweepStream with EngineAnalytic. Kept only
// because the benchmark harness under bench/ calls it.
func AnalyticCurveStream(cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	cfg.Engine = EngineAnalytic
	return SweepStream(cfg, open)
}
