package core

import (
	"sort"

	"cachepirate/internal/analysis"
)

// This file adds phase-resolved profiling. §II-C1 requires that "the
// full measurement cycle must be evaluated in each significant program
// phase" for dynamic adjustment to be accurate; ProfileTimeline makes
// that inspectable by keeping every individual measurement instead of
// averaging across cycles, and analysis on the timeline (PhaseSpread)
// quantifies how phase-dependent each size's samples are — the effect
// behind 403.gcc's 23% error at the paper's 1B-instruction interval
// (Table III).

// TimelineSample is one measurement interval's result.
type TimelineSample struct {
	// Cycle and CacheBytes locate the sample in the schedule.
	Cycle      int
	CacheBytes int64
	// StartInstr is the Target's cumulative instruction count when the
	// interval began — its position in the program, the phase axis.
	StartInstr uint64
	// Metrics of the interval.
	CPI              float64
	BandwidthGBs     float64
	FetchRatio       float64
	MissRatio        float64
	PirateFetchRatio float64
	Trusted          bool
}

// Timeline is the full per-interval record of a dynamic profiling run.
type Timeline struct {
	Samples []TimelineSample
}

// Curve collapses the timeline into an averaged curve (what Profile
// returns), so callers can have both views from one run.
func (tl *Timeline) Curve(fetchThreshold float64) *analysis.Curve {
	type acc struct {
		cpi, bw, fetch, miss, pfr float64
		n                         int
	}
	// Sizes are accumulated in first-seen order (the deterministic order
	// of the samples themselves) rather than by ranging over the map.
	accs := map[int64]*acc{}
	var order []int64
	for _, s := range tl.Samples {
		a := accs[s.CacheBytes]
		if a == nil {
			a = &acc{}
			accs[s.CacheBytes] = a
			order = append(order, s.CacheBytes)
		}
		a.cpi += s.CPI
		a.bw += s.BandwidthGBs
		a.fetch += s.FetchRatio
		a.miss += s.MissRatio
		a.pfr += s.PirateFetchRatio
		a.n++
	}
	curve := &analysis.Curve{Name: "pirate-timeline"}
	for _, size := range order {
		a := accs[size]
		n := float64(a.n)
		pfr := a.pfr / n
		curve.Points = append(curve.Points, analysis.Point{
			CacheBytes:       size,
			CPI:              a.cpi / n,
			BandwidthGBs:     a.bw / n,
			FetchRatio:       a.fetch / n,
			MissRatio:        a.miss / n,
			PirateFetchRatio: pfr,
			Trusted:          pfr <= fetchThreshold,
			Samples:          a.n,
		})
	}
	curve.Sort()
	return curve
}

// SpreadPoint is one cache size's CPI spread across its samples.
type SpreadPoint struct {
	CacheBytes int64
	Spread     float64
}

// PhaseSpread returns, per cache size in ascending order, the relative
// spread of CPI across that size's samples: (max-min)/mean. Small
// spreads mean every cycle saw the same program behaviour; large
// spreads mean the measurement cycles straddled program phases and the
// averaged curve hides real variation.
func (tl *Timeline) PhaseSpread() []SpreadPoint {
	type mm struct {
		min, max, sum float64
		n             int
	}
	ms := map[int64]*mm{}
	var order []int64
	for _, s := range tl.Samples {
		m := ms[s.CacheBytes]
		if m == nil {
			m = &mm{min: s.CPI, max: s.CPI}
			ms[s.CacheBytes] = m
			order = append(order, s.CacheBytes)
		}
		if s.CPI < m.min {
			m.min = s.CPI
		}
		if s.CPI > m.max {
			m.max = s.CPI
		}
		m.sum += s.CPI
		m.n++
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]SpreadPoint, 0, len(order))
	for _, size := range order {
		m := ms[size]
		mean := m.sum / float64(m.n)
		if mean > 0 {
			out = append(out, SpreadPoint{CacheBytes: size, Spread: (m.max - m.min) / mean})
		}
	}
	return out
}

// ProfileTimeline is Profile with per-interval recording: the same
// schedule on the same rig, with every measurement kept with its
// position in the Target's execution instead of averaged.
func ProfileTimeline(cfg Config, newGen GenFactory) (*Timeline, *Report, error) {
	cfg, tgt, err := soloTarget(cfg, newGen)
	if err != nil {
		return nil, nil, err
	}
	tl, rep, err := schedule(cfg, tgt)
	if err != nil {
		return nil, nil, err
	}
	return tl, &rep.Report, nil
}
