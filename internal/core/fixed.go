package core

import (
	"context"
	"fmt"

	"cachepirate/internal/analysis"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
)

// ProfileFixed measures one cache size with the Pirate stealing a
// fixed amount for the whole run — the paper's baseline methodology
// (one Target execution per size, §II-C1) used as the reference when
// validating dynamic adjustment (Table III).
func ProfileFixed(cfg Config, newGen GenFactory, size int64, threads int) (analysis.Point, error) {
	cfg, tgt, err := resolve(cfg, nil, eachCore(newGen))
	if err != nil {
		return analysis.Point{}, err
	}
	if size <= 0 || size > cfg.Machine.L3.Size {
		return analysis.Point{}, fmt.Errorf("core: size %d outside (0, L3]", size)
	}
	if threads <= 0 {
		threads = 1
	}
	r, err := newRig(cfg, tgt)
	if err != nil {
		return analysis.Point{}, err
	}
	if err := r.steal(cfg.Machine.L3.Size-size, threads); err != nil {
		return analysis.Point{}, err
	}
	if err := r.warm(tgt.warm); err != nil {
		return analysis.Point{}, err
	}
	tl := &Timeline{}
	for i := 0; i < cfg.Cycles; i++ {
		s, err := r.measure(i, size)
		if err != nil {
			return analysis.Point{}, err
		}
		tl.Samples = append(tl.Samples, s)
	}
	return tl.Curve().Points[0], nil
}

// ProfileFixedCurve runs ProfileFixed for every configured size; this
// is the 15-executions reference the paper compares dynamic adjustment
// against (≥1500% overhead vs 5.5%). Every size is an independent
// Target execution on a fresh pirated machine, so the runs fan out
// across cfg.Workers with size-ordered collection; the curve is
// identical at any worker count.
func ProfileFixedCurve(cfg Config, newGen GenFactory, threads int) (*analysis.Curve, error) {
	cfg = cfg.withDefaults()
	if err := cfg.checkGrid(); err != nil {
		return nil, err
	}
	points, err := runner.Map(context.Background(), runner.Pool{Workers: cfg.Workers}, len(cfg.Sizes),
		func(_ context.Context, i int) (analysis.Point, error) {
			return ProfileFixed(cfg, newGen, cfg.Sizes[i], threads)
		})
	if err != nil {
		return nil, err
	}
	curve := &analysis.Curve{Name: "pirate-fixed", Points: points}
	curve.Sort()
	return curve, nil
}

// OverheadReport quantifies the run-time cost of dynamic profiling
// (Table III): how much longer the Target's instructions took with the
// Pirate attached than alone.
type OverheadReport struct {
	TargetInstructions uint64
	AloneCycles        float64
	ProfiledCycles     float64
}

// Overhead returns the relative execution-time increase.
func (o OverheadReport) Overhead() float64 {
	if o.AloneCycles == 0 {
		return 0
	}
	return o.ProfiledCycles/o.AloneCycles - 1
}

// MeasureOverhead runs Profile and then re-runs the same number of
// Target instructions alone on a fresh machine, returning both costs.
func MeasureOverhead(cfg Config, newGen GenFactory) (*analysis.Curve, *Report, OverheadReport, error) {
	cfg, tgt, err := resolve(cfg, nil, eachCore(newGen))
	if err != nil {
		return nil, nil, OverheadReport{}, err
	}
	curve, rep, err := scheduleCurve(cfg, tgt, "pirate")
	if err != nil {
		return nil, nil, OverheadReport{}, err
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, nil, OverheadReport{}, err
	}
	if err := tgt.attach(m); err != nil {
		return nil, nil, OverheadReport{}, err
	}
	if err := m.RunInstructions(tgt.cores[0], rep.TargetInstructions); err != nil {
		return nil, nil, OverheadReport{}, err
	}
	o := OverheadReport{
		TargetInstructions: rep.TargetInstructions,
		AloneCycles:        m.Now(),
		ProfiledCycles:     rep.WallCycles,
	}
	return curve, rep, o, nil
}
