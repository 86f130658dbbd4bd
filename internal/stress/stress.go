// Package stress implements the related-work baselines the paper
// compares Cache Pirating against (§V):
//
//   - Xu et al. [4]: a stress application that freely contends for
//     cache with the Target and whose average occupancy is estimated
//     after the fact. Its two flaws — the stolen amount is an average
//     that is hard to pin to one cache size, and its off-chip
//     bandwidth is unbounded and distorts the Target (footnote 5:
//     +37% CPI at a 4MB steal) — are reproducible with this package.
//
//   - Doucette & Fedorova [5] base vectors: a sequential scanner with
//     its working set fixed to the whole shared cache, yielding a
//     single "cache sensitivity" number rather than a curve.
package stress

import (
	"fmt"

	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// XuResult is one co-run with the Xu-style stressor.
type XuResult struct {
	// TargetCPI is the Target's CPI while contending with the stressor.
	TargetCPI float64
	// BaselineCPI is the Target's CPI alone on the same machine model.
	BaselineCPI float64
	// AvgStolenBytes is the stressor's average L3 occupancy, estimated
	// by periodic sampling — the after-the-fact average Xu et al. use
	// in place of a controlled size.
	AvgStolenBytes int64
	// StressorBandwidthGBs is the stressor's off-chip bandwidth — the
	// uncontrolled resource that distorts the measurement.
	StressorBandwidthGBs float64
}

// XuCoRun runs the Target against a freely-contending random-access
// stressor with the given working set (the amount Xu et al. would
// *like* to steal) and measures what actually happens. Occupancy is
// sampled every sampleEvery Target instructions.
func XuCoRun(mcfg machine.Config, newGen func(seed uint64) workload.Generator, seed uint64,
	stressWSS int64, targetInstrs, sampleEvery uint64) (XuResult, error) {
	if mcfg.Cores < 2 {
		return XuResult{}, fmt.Errorf("stress: need at least 2 cores, got %d", mcfg.Cores)
	}
	if stressWSS <= 0 || targetInstrs == 0 || sampleEvery == 0 {
		return XuResult{}, fmt.Errorf("stress: bad parameters (wss=%d instrs=%d sample=%d)",
			stressWSS, targetInstrs, sampleEvery)
	}

	// Baseline: Target alone.
	mb, err := machine.New(mcfg)
	if err != nil {
		return XuResult{}, err
	}
	if err := mb.Attach(0, newGen(seed)); err != nil {
		return XuResult{}, err
	}
	if err := mb.RunInstructions(0, targetInstrs/4); err != nil { // warm-up
		return XuResult{}, err
	}
	base, err := counters.Interval(mb, func() error { return mb.RunInstructions(0, targetInstrs) })
	if err != nil {
		return XuResult{}, err
	}

	// Co-run: stressor contends freely at maximum rate (no pacing, no
	// feedback — that is the point of the comparison).
	m, err := machine.New(mcfg)
	if err != nil {
		return XuResult{}, err
	}
	if err := m.Attach(0, newGen(seed)); err != nil {
		return XuResult{}, err
	}
	stressor := workload.NewRandomAccess(workload.RandomConfig{
		Name: "xu-stressor", Span: stressWSS, NInstr: 0, MLP: 4, Seed: seed + 77,
	})
	if err := m.Attach(1, stressor); err != nil {
		return XuResult{}, err
	}
	if err := m.RunInstructions(0, targetInstrs/4); err != nil {
		return XuResult{}, err
	}
	var occSum int64
	var samples int64
	iv, err := counters.Interval(m, func() error {
		for remaining := targetInstrs; remaining > 0; {
			chunk := min(sampleEvery, remaining)
			if err := m.RunInstructions(0, chunk); err != nil {
				return err
			}
			occSum += m.Hierarchy().L3().ResidentBytes(cache.Owner(1))
			samples++
			remaining -= chunk
		}
		return nil
	})
	if err != nil {
		return XuResult{}, err
	}
	return XuResult{
		TargetCPI:            iv[0].CPI(),
		BaselineCPI:          base[0].CPI(),
		AvgStolenBytes:       occSum / samples,
		StressorBandwidthGBs: iv[1].BandwidthGBs(mcfg.CPU.FreqHz),
	}, nil
}

// Sensitivity is the Doucette & Fedorova base-vector result: a single
// slowdown number.
type Sensitivity struct {
	AloneCPI float64
	CoRunCPI float64
}

// BaseVectorSensitivity co-runs the Target with the cache base vector
// (a sequential scanner whose working set equals the full shared
// cache) and reports the slowdown. Unlike Cache Pirating it controls
// neither how much cache is actually stolen nor the bandwidth used,
// and yields one number instead of a curve.
func BaseVectorSensitivity(mcfg machine.Config, newGen func(seed uint64) workload.Generator,
	seed uint64, targetInstrs uint64) (Sensitivity, error) {
	if mcfg.Cores < 2 {
		return Sensitivity{}, fmt.Errorf("stress: need at least 2 cores, got %d", mcfg.Cores)
	}
	if targetInstrs == 0 {
		return Sensitivity{}, fmt.Errorf("stress: zero instruction budget")
	}
	run := func(withVector bool) (float64, error) {
		m, err := machine.New(mcfg)
		if err != nil {
			return 0, err
		}
		if err := m.Attach(0, newGen(seed)); err != nil {
			return 0, err
		}
		if withVector {
			vec := workload.NewSequential(workload.SequentialConfig{
				Name: "base-vector", Span: mcfg.L3.Size, Elem: workload.LineSize, MLP: 4,
			})
			if err := m.Attach(1, vec); err != nil {
				return 0, err
			}
		}
		if err := m.RunInstructions(0, targetInstrs/4); err != nil {
			return 0, err
		}
		iv, err := counters.Interval(m, func() error { return m.RunInstructions(0, targetInstrs) })
		if err != nil {
			return 0, err
		}
		return iv[0].CPI(), nil
	}
	alone, err := run(false)
	if err != nil {
		return Sensitivity{}, err
	}
	co, err := run(true)
	if err != nil {
		return Sensitivity{}, err
	}
	return Sensitivity{AloneCPI: alone, CoRunCPI: co}, nil
}
