package experiments

import (
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
)

// Ext5PhaseResolved exposes what Table III's gcc pathology looks like
// from the inside: ProfileTimeline keeps every measurement interval
// instead of averaging, and the per-size CPI spread across measurement
// cycles shows which sizes' samples straddled program phases. A phased
// application (gcc) shows large spreads; a steady one (sphinx3) does
// not. §II-C1's correctness condition — "the full measurement cycle
// must be evaluated in each significant program phase" — becomes a
// measurable quantity.
func Ext5PhaseResolved(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "ext5", Title: "phase-resolved profiling: per-size CPI spread across cycles"}

	benches := opts.benchList("gcc", "sphinx3")
	timelines, err := forEachBench(opts, benches, func(bench string) (*core.Timeline, error) {
		cfg := opts.profileConfig(machine.NehalemConfig())
		cfg.Threads = 1
		if cfg.Cycles < 3 {
			cfg.Cycles = 3 // spreads need several samples per size
		}
		tl, _, err := core.ProfileTimeline(cfg, factory(bench))
		return tl, err
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range benches {
		tl := timelines[i]
		spread := tl.PhaseSpread() // sorted by cache size

		t := report.NewTable("per-size CPI spread — "+bench,
			"cache", "avg CPI", "spread (max-min)/mean")
		curve := tl.Curve()
		for _, sp := range spread {
			cpi, err := curve.CPIAt(sp.CacheBytes)
			if err != nil {
				return nil, err
			}
			t.Add(report.MB(sp.CacheBytes), report.F(cpi, 3), report.Pct(sp.Spread, 1))
		}
		res.Add(t)

		worst := 0.0
		for _, sp := range spread {
			if sp.Spread > worst {
				worst = sp.Spread
			}
		}
		res.Notef("%s: worst per-size spread %.1f%% across %d samples", bench, worst*100, len(tl.Samples))
	}
	res.Notef("large spreads mean the averaged curve hides phase behaviour — gcc's Table III failure mode")
	return res, nil
}
