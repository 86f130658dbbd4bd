// Package analytic predicts miss-ratio curves from a SHARDS-sampled
// reuse-distance profile (internal/stackdist) without replaying the
// trace per size: one streamed pass over the records — O(sample)
// time, O(1) memory — yields a Profile, and every curve point is then
// a histogram walk. This is the ROADMAP "analytic fast paths"
// subsystem (simulate.EngineAnalytic); conformance.CheckAnalyticEquivalence
// pins its curves against the exact Mattson pass and the fused replica
// engine.
//
// The model is the threshold (Mattson) model: an access hits a C-line
// fully-associative LRU cache iff its sampled stack distance is < C.
// It is exact at rate 1.0 (bit-identical to simulate.StackModelCurve)
// and unbiased under sampling.
//
// Set associativity is corrected with the standard Poisson argument:
// the d distinct lines of a reuse interval spread binomially over S
// sets, so an access at fully-associative distance d hits a W-way
// set-associative cache with probability P[Poisson(d/S) < W].
package analytic

import (
	"fmt"
	"math"

	"cachepirate/internal/analysis"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/trace"
)

// Profile is the analytic model input: the rescaled reuse-distance
// histogram, snapshotted from one profiling pass.
type Profile struct {
	// Hist is the rescaled sampled reuse-distance histogram.
	Hist *stackdist.SampledHistogram
	// LineBytes is the line size the profile was collected at.
	LineBytes int64
}

// NewProfile snapshots a profiler's accumulated state into a Profile.
func NewProfile(p *stackdist.SampledProfiler) *Profile {
	return &Profile{Hist: p.Histogram(), LineBytes: 64}
}

// ProfileSource profiles a streamed trace in one pass — the out-of-core
// entry point: O(sample) memory however long the stream runs.
func ProfileSource(src trace.BlockSource, cfg stackdist.SampledConfig) (*Profile, error) {
	p, err := stackdist.NewSampledProfiler(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.FeedSource(src); err != nil {
		return nil, err
	}
	return NewProfile(p), nil
}

// MissRatio is the threshold-model miss ratio of a fully-associative
// LRU cache of capacityBytes, cold misses included (matching
// simulate.StackModelCurve).
func (pr *Profile) MissRatio(capacityBytes int64) float64 {
	return pr.Hist.MissRatio(capacityBytes / pr.LineBytes)
}

// MissRatioSetAssoc corrects the threshold model for set associativity
// (sets sets of ways ways): each histogram bucket's hit probability is
// P[Poisson(d/sets) < ways]. At sets = 1 with capacity ways lines the
// fully-associative behaviour is NOT recovered (the Poisson argument
// models many sets); callers use it for real geometries. The walk
// visits the histogram's sparse buckets only, once per geometry.
func (pr *Profile) MissRatioSetAssoc(sets, ways int) float64 {
	h := pr.Hist
	if h.Total <= 0 {
		return 0
	}
	var hits float64
	for _, b := range h.Buckets {
		// Rounded before the add, so no target fuses it into one FMA.
		hits += float64(b.Mass * poissonCDF(float64(b.Dist)/float64(sets), ways-1))
	}
	return 1 - hits/h.Total
}

// poissonCDF returns P[Poisson(lambda) <= k], computed by the stable
// forward recurrence on the pmf.
func poissonCDF(lambda float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	term := math.Exp(-lambda)
	sum := term
	for i := 1; i <= k; i++ {
		term = float64(term * (lambda / float64(i))) // rounded: no FMA into sum
		sum += term
	}
	return math.Min(1, sum)
}

// Footprint estimates the trace's distinct-line footprint in bytes.
func (pr *Profile) Footprint() float64 {
	return pr.Hist.DistinctLines() * float64(pr.LineBytes)
}

// WorkingSet estimates the q-quantile working set in bytes: the cache
// size capturing fraction q of the finite reuse mass.
func (pr *Profile) WorkingSet(q float64) (float64, error) {
	d, err := pr.Hist.Percentile(q)
	if err != nil {
		return 0, err
	}
	return float64(d+1) * float64(pr.LineBytes), nil
}

// StdErr is the per-point sampling standard error of a miss-ratio
// estimate m. SHARDS samples whole lines, not accesses — every access
// to a line is in or out together — so the effective sample size is
// the number of sampled *lines* (Cold mass times the rate), not the
// sampled-access count, and the variance carries the finite-population
// correction (1 - rate): at rate 1.0 the whole population is measured
// and the sampling error is exactly zero. The Bernoulli form is still
// an approximation (lines contribute unequal access mass); the
// conformance bounds, not these bars, are the enforced contract.
func (pr *Profile) StdErr(missRatio float64) float64 {
	lines := pr.Hist.Cold * pr.Hist.Rate // sampled distinct lines
	if lines <= 0 || pr.Hist.Rate >= 1 {
		return 0
	}
	v := missRatio * (1 - missRatio) * (1 - pr.Hist.Rate) / lines
	return math.Sqrt(math.Max(0, v))
}

// Geometry describes one cache size to evaluate: a fully-associative
// capacity when Sets == 0, or an explicit sets x ways geometry.
type Geometry struct {
	// CacheBytes is the capacity this geometry represents.
	CacheBytes int64
	// Sets and Ways select the set-associative correction; Sets == 0
	// evaluates the fully-associative threshold model at CacheBytes.
	Sets, Ways int
}

// PointEstimate is one analytic curve point with its sampling error.
type PointEstimate struct {
	CacheBytes int64
	MissRatio  float64
	// StdErr is the one-sigma sampling error of MissRatio.
	StdErr float64
}

// CurveEstimate is the analytic counterpart of an analysis.Curve: the
// per-size miss-ratio estimates plus the sampling metadata needed to
// state error bars.
type CurveEstimate struct {
	// Points are the estimates, sorted by CacheBytes ascending by
	// construction (callers pass sorted grids).
	Points []PointEstimate
	// Rate is the final effective sampling rate.
	Rate float64
	// Sampled and Records are the raw sampled and total access counts.
	Sampled, Records uint64
}

// Estimate evaluates the threshold model over a size grid.
func (pr *Profile) Estimate(grid []Geometry) (*CurveEstimate, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("analytic: empty size grid")
	}
	est := &CurveEstimate{
		Points:  make([]PointEstimate, 0, len(grid)),
		Rate:    pr.Hist.Rate,
		Sampled: pr.Hist.Sampled,
		Records: pr.Hist.Records,
	}
	for _, g := range grid {
		if g.CacheBytes <= 0 {
			return nil, fmt.Errorf("analytic: non-positive cache size %d", g.CacheBytes)
		}
		var mr float64
		if g.Sets > 0 {
			mr = pr.MissRatioSetAssoc(g.Sets, g.Ways)
		} else {
			mr = pr.MissRatio(g.CacheBytes)
		}
		est.Points = append(est.Points, PointEstimate{
			CacheBytes: g.CacheBytes,
			MissRatio:  mr,
			StdErr:     pr.StdErr(mr),
		})
	}
	return est, nil
}

// Curve shapes the estimate as an analysis.Curve named "analytic",
// points in size order. The model has no prefetcher, so fetches equal
// misses, and no timing, so CPI and bandwidth stay zero; the error
// bars stay behind in the estimate.
func (est *CurveEstimate) Curve() *analysis.Curve {
	curve := &analysis.Curve{Name: "analytic"}
	for _, p := range est.Points {
		curve.Points = append(curve.Points, analysis.Point{
			CacheBytes: p.CacheBytes,
			FetchRatio: p.MissRatio,
			MissRatio:  p.MissRatio,
			Trusted:    true,
			Samples:    1,
		})
	}
	curve.Sort()
	return curve
}
