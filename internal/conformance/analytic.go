package conformance

import (
	"fmt"
	"math"

	"cachepirate/internal/analytic"
	"cachepirate/internal/cache"
	"cachepirate/internal/simulate"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/trace"
)

// AnalyticBounds states the error budget CheckAnalyticEquivalence
// enforces between the SHARDS-sampled analytic curves and the exact
// passes. The bounds are part of the analytic subsystem's contract
// (DESIGN.md §10): exactness where sampling degenerates, explicit
// tolerances where it does not.
type AnalyticBounds struct {
	// Rate is the SHARDS sampling rate the sampled comparisons run at.
	Rate float64
	// MaxDeltaFA bounds |Δ miss-ratio| between the rate-Rate sampled
	// fully-associative threshold curve and the exact stack-distance
	// model, per size.
	MaxDeltaFA float64
	// MaxDeltaSetAssoc bounds |Δ miss-ratio| between the rate-1.0
	// Poisson-corrected analytic curve and the exact per-set Mattson
	// curve (itself pinned hit-for-hit against the replica kernel),
	// per size. This budget covers model error, not sampling noise —
	// the Poisson argument assumes random line-to-set assignment and
	// is loosest when a balanced working set just fits the cache.
	MaxDeltaSetAssoc float64
}

// CheckAnalyticEquivalence cross-validates the analytic curve
// subsystem on one workload trace against every exact pass we have:
//
//  1. Exact degeneration: at sample rate 1.0 the analytic
//     fully-associative threshold curve equals simulate.StackModelCurve
//     bit for bit (SHARDS with the filter wide open IS the Mattson
//     analysis).
//  2. Stream/in-memory identity: the sampled analytic curve at b.Rate
//     is bit-identical whether the profile was fed from the in-memory
//     trace or a streamed BlockSource.
//  3. Sampling accuracy: the rate-b.Rate fully-associative curve stays
//     within b.MaxDeltaFA of the exact stack model at every size.
//  4. Set-associativity model accuracy: the rate-1.0 corrected curve
//     (the EngineAnalytic product path) stays within
//     b.MaxDeltaSetAssoc of the exact Mattson per-set curve — and the
//     Mattson pass is re-verified against the cache.Cache kernel at
//     the full geometry, closing the chain analytic -> Mattson ->
//     replica simulation.
//
// cfg must describe an LRU ByWays sweep (the geometries where exact
// per-set ground truth exists).
func CheckAnalyticEquivalence(cfg simulate.Config, tr *trace.Trace, b AnalyticBounds) error {
	if b.Rate <= 0 || b.Rate > 1 {
		return fmt.Errorf("conformance: analytic bounds rate %g outside (0, 1]", b.Rate)
	}
	sizes := sweepSizes(cfg)

	// Exact references.
	stackCurve, err := simulate.StackModelCurve(tr, sizes)
	if err != nil {
		return fmt.Errorf("conformance: stack model: %w", err)
	}
	mattsonCfg := cfg
	mattsonCfg.Engine = simulate.EngineMattson
	mattson, err := simulate.Sweep(mattsonCfg, tr)
	if err != nil {
		return fmt.Errorf("conformance: mattson: %w", err)
	}

	// (1) Rate 1.0 degenerates to the exact stack model, bit for bit.
	faExact, err := analyticFAMissRatios(tr, sizes, 1.0)
	if err != nil {
		return fmt.Errorf("conformance: analytic FA curve at rate 1.0: %w", err)
	}
	for i, mr := range faExact {
		want := stackCurve.Points[i].MissRatio
		if math.Float64bits(mr) != math.Float64bits(want) {
			return fmt.Errorf("conformance: rate-1.0 analytic FA curve not bit-identical to stack model at %d B: %v != %v",
				sizes[i], mr, want)
		}
	}

	// (2) Streamed and in-memory profiles agree bit for bit at b.Rate.
	smplCfg := cfg
	smplCfg.Engine = simulate.EngineAnalytic
	smplCfg.SampleRate = b.Rate
	inmem, err := simulate.Sweep(smplCfg, tr)
	if err != nil {
		return fmt.Errorf("conformance: analytic in-memory: %w", err)
	}
	streamed, err := simulate.SweepStream(smplCfg, func() (trace.BlockSource, error) {
		return trace.NewReplayer(tr, false), nil
	})
	if err != nil {
		return fmt.Errorf("conformance: analytic streamed: %w", err)
	}
	if err := CurvesIdentical(inmem, streamed); err != nil {
		return fmt.Errorf("conformance: analytic streamed curve diverges from in-memory: %w", err)
	}

	// (3) Sampled FA accuracy against the exact stack model.
	faSampled, err := analyticFAMissRatios(tr, sizes, b.Rate)
	if err != nil {
		return fmt.Errorf("conformance: analytic FA curve at rate %g: %w", b.Rate, err)
	}
	for i, mr := range faSampled {
		want := stackCurve.Points[i].MissRatio
		if d := math.Abs(mr - want); d > b.MaxDeltaFA {
			return fmt.Errorf("conformance: rate-%g FA miss ratio at %d B off by %v (> %v): sampled %v, exact %v",
				b.Rate, sizes[i], d, b.MaxDeltaFA, mr, want)
		}
	}

	// (4) Set-associativity correction against the exact Mattson pass.
	corrCfg := cfg
	corrCfg.Engine = simulate.EngineAnalytic
	corrected, err := simulate.Sweep(corrCfg, tr)
	if err != nil {
		return fmt.Errorf("conformance: analytic corrected curve: %w", err)
	}
	for i, p := range corrected.Points {
		want := mattson.Points[i].MissRatio
		if d := math.Abs(p.MissRatio - want); d > b.MaxDeltaSetAssoc {
			return fmt.Errorf("conformance: corrected miss ratio at %d B off by %v (> %v): analytic %v, mattson %v",
				p.CacheBytes, d, b.MaxDeltaSetAssoc, p.MissRatio, want)
		}
	}
	return mattsonReplicaCrossCheck(cfg, tr, mattson.Points[len(mattson.Points)-1].MissRatio)
}

// sweepSizes materialises the sweep's size grid the way withDefaults
// does (an empty grid means one size per way).
func sweepSizes(cfg simulate.Config) []int64 {
	if len(cfg.Sizes) > 0 {
		return cfg.Sizes
	}
	var sizes []int64
	step := cfg.Machine.L3.Size / int64(cfg.Machine.L3.Ways)
	for s := step; s <= cfg.Machine.L3.Size; s += step {
		sizes = append(sizes, s)
	}
	return sizes
}

// analyticFAMissRatios evaluates the sampled fully-associative
// threshold model over the size grid.
func analyticFAMissRatios(tr *trace.Trace, sizes []int64, rate float64) ([]float64, error) {
	maxLines := 0
	for _, s := range sizes {
		if lines := int(s / 64); lines > maxLines {
			maxLines = lines
		}
	}
	p, err := stackdist.NewSampledProfiler(stackdist.SampledConfig{
		Rate: rate, MaxDistance: maxLines, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	p.Feed(tr.Records)
	prof := analytic.NewProfile(p)
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = prof.MissRatio(s)
	}
	return out, nil
}

// mattsonReplicaCrossCheck re-verifies the Mattson reference against
// the cache.Cache kernel at the full L3 geometry: both compute the
// miss ratio as 1 - hits/accesses over integer counters, so equal hit
// counts mean bit-identical ratios.
func mattsonReplicaCrossCheck(cfg simulate.Config, tr *trace.Trace, mattsonMR float64) error {
	l3 := cfg.Machine.L3
	rep, err := cache.New(cache.Config{
		Name: "L3", Size: l3.Size, Ways: l3.Ways, LineSize: l3.LineSize,
		Policy: cache.LRU, Owners: 1,
	})
	if err != nil {
		return fmt.Errorf("conformance: replica build: %w", err)
	}
	for _, r := range tr.Records {
		rep.AccessFill(cache.Addr(r.Addr), r.Write, 0)
	}
	st := rep.Stats(0)
	repMR := 1 - float64(st.Hits)/float64(uint64(tr.Len()))
	if math.Float64bits(repMR) != math.Float64bits(mattsonMR) {
		return fmt.Errorf("conformance: mattson full-size miss ratio %v != replica kernel %v", mattsonMR, repMR)
	}
	return nil
}
