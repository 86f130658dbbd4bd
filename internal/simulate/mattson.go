package simulate

import (
	"context"
	"fmt"
	"math/bits"

	"cachepirate/internal/analysis"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/trace"
)

// mattsonGeometry returns the per-size way counts of a validated
// EngineMattson config plus the shared L3 geometry.
func mattsonGeometry(cfg Config) (ways []int, sets int, lineShift uint) {
	mcfgs := shrunkMachines(cfg)
	ways = make([]int, len(mcfgs))
	for i, mcfg := range mcfgs {
		ways[i] = mcfg.L3.Ways
	}
	sets = int(cfg.Machine.L3.Sets())
	lineShift = uint(bits.TrailingZeros64(uint64(cfg.Machine.L3.LineSize)))
	return ways, sets, lineShift
}

// mattsonStream is the EngineMattson body: the exact single-pass curve
// for LRU ByWays sweeps of the L3 in isolation. One replay of the line
// stream through per-set recency stacks (stackdist.SetAssocProfiler,
// block at a time, O(sets*ways) memory) yields, by stack inclusion,
// the exact hit/miss curve of every way count at once — the same L3
// demand behaviour the fused engine's replicas compute by brute force,
// without the per-replica state.
//
// Scope: the stream feeds the L3 directly — no private L1/L2
// filtering, no prefetcher, no timing — so the curve carries miss and
// fetch ratios only (CPI and bandwidth stay zero). A full-machine
// curve cannot take this shortcut even for LRU: each replica's L3
// back-invalidates different victims into its private levels, so the
// L3 demand streams themselves diverge across sizes; that is exactly
// what the fused replicas exist to track. The stackdist tests pin the
// histogram hit-for-hit against the cache.Replicas kernel. Stack
// inclusion does not hold for the nehalem, plru or random policies.
func mattsonStream(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (curve *analysis.Curve, err error) {
	ways, sets, lineShift := mattsonGeometry(cfg)
	maxWays := 0
	for _, w := range ways {
		maxWays = max(maxWays, w)
	}
	p, err := stackdist.NewSetAssocProfiler(sets, maxWays, lineShift)
	if err != nil {
		return nil, err
	}
	src, err := open()
	if err != nil {
		return nil, err
	}
	defer closeSource(src, &err)
	if err := p.FeedSource(withContext(ctx, src)); err != nil {
		return nil, err
	}
	h := p.Histogram()
	if h.Total == 0 {
		return nil, fmt.Errorf("simulate: empty trace")
	}
	curve = &analysis.Curve{Name: "mattson"}
	for i, size := range cfg.Sizes {
		mr, err := h.MissRatio(ways[i])
		if err != nil {
			return nil, err
		}
		curve.Points = append(curve.Points, analysis.Point{
			CacheBytes: size,
			// No prefetcher in the bare-L3 model: fetches equal misses.
			FetchRatio: mr,
			MissRatio:  mr,
			Trusted:    true,
			Samples:    1,
		})
	}
	curve.Sort()
	return curve, nil
}

// MattsonLRUCurve is Sweep with EngineMattson. Kept only because the
// benchmark harness under bench/ calls it.
func MattsonLRUCurve(cfg Config, tr *trace.Trace) (*analysis.Curve, error) {
	cfg.Engine = EngineMattson
	return Sweep(cfg, tr)
}

// MattsonLRUCurveStream is SweepStream with EngineMattson. Kept only
// because the benchmark harness under bench/ calls it.
func MattsonLRUCurveStream(cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	cfg.Engine = EngineMattson
	return SweepStream(cfg, open)
}
