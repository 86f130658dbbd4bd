package experiments

import (
	"context"
	"fmt"
	"sync"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// referenceCurves captures a trace from the benchmark and sweeps it
// through reference simulators with the given L3 policies, calibrated
// so the full-size point matches the pirate curve's baseline
// (§III-B1's offset correction). Each sweep after the first replays
// only the sizes whose uncalibrated point under the earlier policies
// does not hold for its own (simulate.SweepPolicies).
func referenceCurves(opts Options, bench string, baselineFR float64,
	policies ...cache.PolicyKind) (map[cache.PolicyKind]*analysis.Curve, error) {
	tr := simulate.CaptureTrace(factory(bench), opts.Seed, 0, opts.TraceRecords)
	open := func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
	out := make(map[cache.PolicyKind]*analysis.Curve, len(policies))
	var prior *simulate.PolicyPoints
	for _, pol := range policies {
		mcfg := machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), pol)
		// Constant associativity (footnote 3): shrinking the reference
		// by removing ways gives 1-2-way caches at the small sizes,
		// whose conflict misses have no analogue in the way-stolen
		// 16-way cache the Target actually sees.
		curve, points, err := simulate.SweepPolicies(context.Background(), simulate.Config{
			Machine:    mcfg,
			Sizes:      opts.Sizes,
			Mode:       simulate.BySets,
			WarmPasses: 2,
			Workers:    opts.Workers,
		}, open, prior)
		if err != nil {
			return nil, err
		}
		prior = points
		simulate.Calibrate(curve, baselineFR)
		curve.Name = bench + "/" + pol.String()
		out[pol] = curve
	}
	return out, nil
}

// pirateCurveNoPrefetch profiles the benchmark on the no-prefetch
// machine, as the paper does for the reference comparison.
func pirateCurveNoPrefetch(opts Options, bench string) (*analysis.Curve, error) {
	cfg := opts.profileConfig(machine.NehalemConfigNoPrefetch())
	curve, _, err := core.Profile(cfg, factory(bench))
	if err != nil {
		return nil, err
	}
	curve.Name = bench
	return curve, nil
}

// baselineFetchRatio is the pirate curve's full-cache fetch ratio —
// the calibration reference point.
func baselineFetchRatio(c *analysis.Curve) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].FetchRatio
}

// Fig4MicroValidation reproduces Figure 4: pirate-measured fetch-ratio
// curves for the random and sequential micro benchmarks against
// true-LRU and Nehalem-policy reference simulations. Random agrees
// with both; sequential agrees only with the Nehalem-specific
// simulator — the paper's warning about modelling real hardware.
func Fig4MicroValidation(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "fig4", Title: "micro-benchmark validation: LRU vs Nehalem references"}
	type fig4Bench struct {
		pirate *analysis.Curve
		refs   map[cache.PolicyKind]*analysis.Curve
	}
	benches := opts.benchList("microrand", "microseq")
	rows, err := forEachBench(opts, benches, func(bench string) (fig4Bench, error) {
		pirate, err := pirateCurveNoPrefetch(opts, bench)
		if err != nil {
			return fig4Bench{}, err
		}
		refs, err := referenceCurves(opts, bench, baselineFetchRatio(pirate),
			cache.LRU, cache.Nehalem)
		if err != nil {
			return fig4Bench{}, err
		}
		return fig4Bench{pirate: pirate, refs: refs}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range benches {
		pirate, refs := rows[i].pirate, rows[i].refs
		t := report.NewTable("fetch ratio — "+bench,
			"cache", "pirate", "ref-LRU", "ref-Nehalem", "pirateFR", "trusted")
		for _, p := range pirate.Points {
			lru, _ := refs[cache.LRU].FetchRatioAt(p.CacheBytes)
			neh, _ := refs[cache.Nehalem].FetchRatioAt(p.CacheBytes)
			t.Add(report.MB(p.CacheBytes), report.Pct(p.FetchRatio, 2),
				report.Pct(lru, 2), report.Pct(neh, 2),
				report.Pct(p.PirateFetchRatio, 2), boolStr(p.Trusted))
		}
		res.Add(t)
		lruErr, err := analysis.FetchRatioErrors(pirate, refs[cache.LRU])
		if err != nil {
			return nil, err
		}
		nehErr, err := analysis.FetchRatioErrors(pirate, refs[cache.Nehalem])
		if err != nil {
			return nil, err
		}
		res.Notef("%s: mean abs error vs LRU ref %.2f%%, vs Nehalem ref %.2f%%",
			bench, lruErr.AbsMean*100, nehErr.AbsMean*100)
	}
	return res, nil
}

// fig6Benchmarks is the default reference-comparison set (the paper
// simulates 20 and plots 12; we use a representative dozen).
var fig6Benchmarks = []string{
	"povray", "h264ref", "calculix", "gromacs", "bzip2", "xalancbmk",
	"omnetpp", "sphinx3", "astar", "mcf", "gcc", "cigar",
}

// fig6Memo caches the expensive pirate+reference computation so that
// running fig6 and fig7 in one process (cmd/experiments all) does the
// work once. Keyed by the option fingerprint; entries are never
// evicted (a process runs a handful of configurations at most). Each
// entry carries a sync.Once so concurrent fig6/fig7 runs (RunAll fans
// experiments across the pool) deduplicate instead of computing twice.
var (
	fig6Mu   sync.Mutex
	fig6Memo = map[string]*fig6Result{}
)

type fig6Result struct {
	once    sync.Once
	data    map[string][2]*analysis.Curve
	benches []string
	err     error
}

func fig6Key(opts Options, benches []string) string {
	return fmt.Sprintf("%d/%d/%d/%v/%v/%d", opts.IntervalInstrs, opts.Cycles,
		opts.TraceRecords, opts.Sizes, benches, opts.Seed)
}

// fig6Data computes the pirate and Nehalem-reference curve for each
// benchmark; Fig6 renders the curves and Fig7 the error summary. The
// per-benchmark profiles fan out across the option's pool. Workers is
// deliberately excluded from the memo key: any width produces
// identical curves (the determinism tests pin this).
func fig6Data(opts Options) (map[string][2]*analysis.Curve, []string, error) {
	opts = opts.withDefaults()
	benches := opts.benchList(fig6Benchmarks...)
	key := fig6Key(opts, benches)
	fig6Mu.Lock()
	entry := fig6Memo[key]
	if entry == nil {
		entry = &fig6Result{}
		fig6Memo[key] = entry
	}
	fig6Mu.Unlock()
	entry.once.Do(func() {
		curves, err := forEachBench(opts, benches, func(bench string) ([2]*analysis.Curve, error) {
			pirate, err := pirateCurveNoPrefetch(opts, bench)
			if err != nil {
				return [2]*analysis.Curve{}, err
			}
			refs, err := referenceCurves(opts, bench, baselineFetchRatio(pirate), cache.Nehalem)
			if err != nil {
				return [2]*analysis.Curve{}, err
			}
			return [2]*analysis.Curve{pirate, refs[cache.Nehalem]}, nil
		})
		if err != nil {
			entry.err = err
			return
		}
		out := make(map[string][2]*analysis.Curve, len(benches))
		for i, bench := range benches {
			out[bench] = curves[i]
		}
		entry.data, entry.benches = out, benches
	})
	return entry.data, entry.benches, entry.err
}

// Fig6FetchRatioCurves reproduces Figure 6: pirate-measured vs
// reference fetch-ratio curves, with the untrusted (grey) region where
// the Pirate's fetch ratio exceeded 3%.
func Fig6FetchRatioCurves(opts Options) (*Result, error) {
	data, benches, err := fig6Data(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig6", Title: "pirate vs reference fetch-ratio curves"}
	for _, bench := range benches {
		pirate, ref := data[bench][0], data[bench][1]
		t := report.NewTable("fetch ratio — "+bench,
			"cache", "pirate", "reference", "pirateFR", "trusted")
		for _, p := range pirate.Points {
			rv, _ := ref.FetchRatioAt(p.CacheBytes)
			t.Add(report.MB(p.CacheBytes), report.Pct(p.FetchRatio, 2),
				report.Pct(rv, 2), report.Pct(p.PirateFetchRatio, 2), boolStr(p.Trusted))
		}
		res.Add(t)
	}
	return res, nil
}

// Fig7FetchRatioErrors reproduces Figure 7: per-benchmark absolute and
// relative fetch-ratio errors between the pirate and reference curves,
// plus the suite-wide aggregate (paper: 0.2% average / 2.7% max
// absolute).
func Fig7FetchRatioErrors(opts Options) (*Result, error) {
	data, benches, err := fig6Data(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig7", Title: "fetch-ratio errors vs reference"}
	t := report.NewTable("fetch-ratio error per benchmark",
		"benchmark", "abs mean", "abs max", "rel mean", "rel max", "trusted points")
	var sums []analysis.ErrorSummary
	for _, bench := range benches {
		sum, err := analysis.FetchRatioErrors(data[bench][0], data[bench][1])
		if err != nil {
			return nil, err
		}
		sum.Name = bench
		sums = append(sums, sum)
		t.Add(bench, report.Pct(sum.AbsMean, 2), report.Pct(sum.AbsMax, 2),
			report.Pct(sum.RelMean, 1), report.Pct(sum.RelMax, 1),
			report.F(float64(sum.Points), 0))
	}
	res.Add(t)
	agg := analysis.Aggregate(sums)
	res.Notef("suite aggregate: abs mean %.2f%%, abs max %.2f%%, rel mean %.1f%% (paper: 0.2%% / 2.7%% / 27%%)",
		agg.AbsMean*100, agg.AbsMax*100, agg.RelMean*100)
	return res, nil
}
