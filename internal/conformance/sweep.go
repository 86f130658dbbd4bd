package conformance

import (
	"fmt"
	"math"

	"cachepirate/internal/analysis"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// CheckSweepEquivalence runs cfg's sweep twice — once forced onto the
// per-size oracle engine and once with cfg's own engine selection —
// and verifies the two curves are bit-identical. In either sweep mode
// this pits the fused replica kernel (way-shrunk or set-shrunk
// replicas, in replica groups at any Workers) against the
// historical one-machine-per-size path, which nothing but an explicit
// EnginePerSize reaches. The comparison is exact (Float64bits), because
// the fused engine's contract is bit-identity, not tolerance.
func CheckSweepEquivalence(cfg simulate.Config, tr *trace.Trace) error {
	per := cfg
	per.Engine = simulate.EnginePerSize
	want, err := simulate.Sweep(per, tr)
	if err != nil {
		return fmt.Errorf("conformance: per-size sweep: %w", err)
	}
	got, err := simulate.Sweep(cfg, tr)
	if err != nil {
		return fmt.Errorf("conformance: %v sweep: %w", cfg.Engine, err)
	}
	if err := CurvesIdentical(want, got); err != nil {
		return fmt.Errorf("conformance: %v sweep diverges from per-size oracle: %w", cfg.Engine, err)
	}
	return nil
}

// CurvesIdentical reports the first difference between two curves,
// comparing float fields bit for bit.
func CurvesIdentical(want, got *analysis.Curve) error {
	if want.Name != got.Name {
		return fmt.Errorf("curve name %q != %q", got.Name, want.Name)
	}
	if len(want.Points) != len(got.Points) {
		return fmt.Errorf("curve has %d points, want %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		w, g := want.Points[i], got.Points[i]
		switch {
		case g.CacheBytes != w.CacheBytes:
			return fmt.Errorf("point %d: CacheBytes %d != %d", i, g.CacheBytes, w.CacheBytes)
		case math.Float64bits(g.CPI) != math.Float64bits(w.CPI):
			return fmt.Errorf("point %d (%d B): CPI %v != %v", i, w.CacheBytes, g.CPI, w.CPI)
		case math.Float64bits(g.BandwidthGBs) != math.Float64bits(w.BandwidthGBs):
			return fmt.Errorf("point %d (%d B): BandwidthGBs %v != %v", i, w.CacheBytes, g.BandwidthGBs, w.BandwidthGBs)
		case math.Float64bits(g.FetchRatio) != math.Float64bits(w.FetchRatio):
			return fmt.Errorf("point %d (%d B): FetchRatio %v != %v", i, w.CacheBytes, g.FetchRatio, w.FetchRatio)
		case math.Float64bits(g.MissRatio) != math.Float64bits(w.MissRatio):
			return fmt.Errorf("point %d (%d B): MissRatio %v != %v", i, w.CacheBytes, g.MissRatio, w.MissRatio)
		case math.Float64bits(g.PirateFetchRatio) != math.Float64bits(w.PirateFetchRatio):
			return fmt.Errorf("point %d (%d B): PirateFetchRatio %v != %v", i, w.CacheBytes, g.PirateFetchRatio, w.PirateFetchRatio)
		case g.Trusted != w.Trusted:
			return fmt.Errorf("point %d (%d B): Trusted %v != %v", i, w.CacheBytes, g.Trusted, w.Trusted)
		case g.Samples != w.Samples:
			return fmt.Errorf("point %d (%d B): Samples %d != %d", i, w.CacheBytes, g.Samples, w.Samples)
		}
	}
	return nil
}
