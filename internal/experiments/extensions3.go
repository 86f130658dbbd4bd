package experiments

import (
	"cachepirate/internal/analysis"
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
	"cachepirate/internal/simulate"
)

// Ext3Portability profiles the same benchmarks on two different
// machines — the Nehalem of Table I and a contrasting true-LRU CMP
// with a 6MB L3 — and validates each pirate curve against that
// machine's own reference simulation. The paper's pitch is that the
// method needs no machine model at all, only counters; here the same
// harness produces accurate, *different* curves on both systems.
func Ext3Portability(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "ext3", Title: "portability: the same harness on two machines"}

	machines := []struct {
		name string
		cfg  machine.Config
	}{
		{"nehalem-8MB", machine.NehalemConfigNoPrefetch()},
		{"generic-lru-6MB", noPrefetch(machine.GenericLRUConfig())},
	}
	type ext3Row struct {
		trusted int
		errs    analysis.ErrorSummary
	}
	benches := opts.benchList("microrand", "omnetpp")
	rows, err := forEachBench(opts, benches, func(bench string) ([]ext3Row, error) {
		// The reference trace depends only on the benchmark and the seed.
		tr := simulate.CaptureTrace(factory(bench), opts.Seed, 0, opts.TraceRecords)
		var out []ext3Row
		for _, mc := range machines {
			// Size grid scaled to this machine's L3.
			var sizes []int64
			step := mc.cfg.L3.Size / 8
			for s := step; s <= mc.cfg.L3.Size; s += step {
				sizes = append(sizes, s)
			}
			cfg := opts.profileConfig(mc.cfg)
			cfg.Sizes = sizes
			pirate, _, err := core.Profile(cfg, factory(bench))
			if err != nil {
				return nil, err
			}
			ref, err := simulate.Sweep(simulate.Config{
				Machine: mc.cfg, Sizes: sizes, Mode: simulate.BySets, WarmPasses: 2,
				Workers: opts.Workers,
			}, tr)
			if err != nil {
				return nil, err
			}
			simulate.Calibrate(ref, baselineFetchRatio(pirate))
			sum, err := analysis.FetchRatioErrors(pirate, ref)
			if err != nil {
				return nil, err
			}
			out = append(out, ext3Row{trusted: len(pirate.Trusted()), errs: sum})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range benches {
		t := report.NewTable("pirate accuracy per machine — "+bench,
			"machine", "L3", "trusted points", "abs mean err", "abs max err")
		for j, mc := range machines {
			t.Add(mc.name, report.MB(mc.cfg.L3.Size),
				report.F(float64(rows[i][j].trusted), 0),
				report.Pct(rows[i][j].errs.AbsMean, 2), report.Pct(rows[i][j].errs.AbsMax, 2))
		}
		res.Add(t)
	}
	res.Notef("the harness never consulted either machine's parameters beyond the L3 size grid")
	return res, nil
}

func noPrefetch(cfg machine.Config) machine.Config {
	cfg.NewPrefetcher = nil
	return cfg
}

// Ext4PairPrediction extends the §I-A analysis from homogeneous to
// heterogeneous co-runs: predict each application's CPI when co-run
// with a *different* application from the two solo pirate curves
// (equal cache split plus the shared bandwidth cap), then verify
// against a real pair co-run. This is the use case the related work
// (Xu et al. [4]) targets, done with controlled curves.
func Ext4PairPrediction(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "ext4", Title: "heterogeneous pair co-run prediction from pirate curves"}
	mcfg := machine.NehalemConfig()
	maxBW := mcfg.DRAM.BytesPerCycle * mcfg.CPU.FreqHz / 1e9

	pairs := [][2]string{{"omnetpp", "lbm"}, {"mcf", "povray"}, {"sphinx3", "libquantum"}}
	if len(opts.Benchmarks) >= 2 {
		pairs = [][2]string{{opts.Benchmarks[0], opts.Benchmarks[1]}}
	} else if opts.Quick {
		pairs = pairs[:1]
	}

	curves := map[string]*analysis.Curve{}
	ensureCurve := func(bench string) error {
		if curves[bench] != nil {
			return nil
		}
		cfg := opts.profileConfig(mcfg)
		c, _, err := core.Profile(cfg, factory(bench))
		if err != nil {
			return err
		}
		c.Name = bench
		curves[bench] = c
		return nil
	}

	t := report.NewTable("pair co-run: predicted vs measured CPI",
		"pair", "app", "solo CPI", "predicted", "measured", "pred err")
	for _, pair := range pairs {
		for _, bench := range pair {
			if err := ensureCurve(bench); err != nil {
				return nil, err
			}
		}
		predicted, err := predictPair(curves[pair[0]], curves[pair[1]], mcfg.L3.Size, maxBW)
		if err != nil {
			return nil, err
		}
		measured, err := measurePair(mcfg, pair, opts)
		if err != nil {
			return nil, err
		}
		for i, bench := range pair {
			solo, err := curves[bench].CPIAt(mcfg.L3.Size)
			if err != nil {
				return nil, err
			}
			errPct := 0.0
			if measured[i] > 0 {
				errPct = predicted[i]/measured[i] - 1
			}
			t.Add(pair[0]+"+"+pair[1], bench,
				report.F(solo, 3), report.F(predicted[i], 3), report.F(measured[i], 3),
				report.Pct(errPct, 1))
		}
	}
	res.Add(t)
	res.Notef("prediction: each app at L3/2 on its own curve, both scaled when summed bandwidth exceeds %s", report.GBs(maxBW))
	res.Notef("equal-split is the model's assumption for *identical* co-runners (§I-A); unequal pairs deviate " +
		"when the more aggressive app takes more than half the cache — the deviation measures that imbalance")
	return res, nil
}

// predictPair applies equal-split + bandwidth-cap to two curves.
func predictPair(a, b *analysis.Curve, l3 int64, maxBW float64) ([2]float64, error) {
	half := l3 / 2
	cpiA, err := a.CPIAt(half)
	if err != nil {
		return [2]float64{}, err
	}
	cpiB, err := b.CPIAt(half)
	if err != nil {
		return [2]float64{}, err
	}
	bwA, err := a.BandwidthAt(half)
	if err != nil {
		return [2]float64{}, err
	}
	bwB, err := b.BandwidthAt(half)
	if err != nil {
		return [2]float64{}, err
	}
	if need := bwA + bwB; need > maxBW {
		scale := need / maxBW
		cpiA *= scale
		cpiB *= scale
	}
	return [2]float64{cpiA, cpiB}, nil
}

// measurePair co-runs the two applications and returns their CPIs over
// a common measurement window.
func measurePair(mcfg machine.Config, pair [2]string, opts Options) ([2]float64, error) {
	iv, err := coRun(mcfg, machine.Fixed(10*opts.IntervalInstrs), 2*opts.IntervalInstrs,
		factory(pair[0])(opts.Seed), factory(pair[1])(opts.Seed+17))
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{iv[0].CPI(), iv[1].CPI()}, nil
}
