package experiments

import (
	"cachepirate/internal/analysis"
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
)

// fig8Benchmarks are the applications whose full metric panels the
// paper shows in Figure 8.
var fig8Benchmarks = []string{
	"mcf", "libquantum", "lbm", "gromacs", "sphinx3", "bzip2", "calculix",
}

// Fig8MetricCurves reproduces Figure 8: CPI, bandwidth, fetch-ratio
// and miss-ratio curves with hardware prefetching enabled. The
// qualitative signatures to look for: gromacs' flat CPI despite a 10x
// miss-ratio rise, sphinx3's steep CPI, lbm's fetch>>miss prefetch
// gap, libquantum's high bandwidth, bzip2's near-zero bandwidth.
func Fig8MetricCurves(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "fig8", Title: "metric curves with prefetching enabled"}
	type fig8Bench struct {
		curve *analysis.Curve
		rep   *core.Report
	}
	benches := opts.benchList(fig8Benchmarks...)
	rows, err := forEachBench(opts, benches, func(bench string) (fig8Bench, error) {
		cfg := opts.profileConfig(machine.NehalemConfig())
		curve, rep, err := core.Profile(cfg, factory(bench))
		if err != nil {
			return fig8Bench{}, err
		}
		curve.Name = bench
		return fig8Bench{curve: curve, rep: rep}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range benches {
		res.Add(report.CurveTable(bench+" (prefetching on)", rows[i].curve))
		res.Notef("%s: %s (threads=%d)", bench, report.CurveSparklines(rows[i].curve), rows[i].rep.ThreadsUsed)
	}
	return res, nil
}

// Fig9LBMNoPrefetch reproduces Figure 9: LBM re-profiled with hardware
// prefetching disabled. Expect lower bandwidth, higher CPI at every
// size, and a CPI that now *rises* as cache shrinks — prefetching was
// compensating for the lost cache (fetch ratio equals miss ratio).
func Fig9LBMNoPrefetch(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "fig9", Title: "LBM with hardware prefetching disabled"}
	err := eachBench(opts, res, opts.benchList("lbm"), func(bench string, part *Result) error {
		on, _, err := core.Profile(opts.profileConfig(machine.NehalemConfig()), factory(bench))
		if err != nil {
			return err
		}
		off, _, err := core.Profile(opts.profileConfig(machine.NehalemConfigNoPrefetch()), factory(bench))
		if err != nil {
			return err
		}
		t := report.NewTable(bench+": prefetching on vs off",
			"cache", "CPI on", "CPI off", "BW on", "BW off", "fetch on", "miss on", "fetch off", "miss off")
		// small is the first size of at least 1MB: 0.5MB can be untrusted.
		small := len(off.Points) - 1
		for i, p := range off.Points {
			q := on.Points[i]
			t.Add(report.MB(p.CacheBytes),
				report.F(q.CPI, 3), report.F(p.CPI, 3),
				report.GBs(q.BandwidthGBs), report.GBs(p.BandwidthGBs),
				report.Pct(q.FetchRatio, 2), report.Pct(q.MissRatio, 2),
				report.Pct(p.FetchRatio, 2), report.Pct(p.MissRatio, 2))
			if p.CacheBytes >= 1<<20 && i < small {
				small = i
			}
		}
		part.Add(t)
		rise := func(c *analysis.Curve) float64 {
			return c.Points[small].CPI/c.Points[len(c.Points)-1].CPI - 1
		}
		part.Notef("%s: CPI rise from %s to %s: %s with prefetching, %s without", bench,
			report.MB(off.Points[len(off.Points)-1].CacheBytes), report.MB(off.Points[small].CacheBytes),
			report.Pct(rise(on), 1), report.Pct(rise(off), 1))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Notef("with prefetching off, fetch ratio equals miss ratio by definition")
	return res, nil
}
