package experiments

import (
	"cachepirate/internal/analysis"
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
)

// scalingExperiment is the shared §I-A machinery behind Fig. 1 and
// Fig. 2: for each benchmark (bench unless Options.Benchmarks says
// otherwise), profile it with the Pirate, predict scaling from the
// curve, and compare against measured co-run throughput.
func scalingExperiment(id, title, bench string, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	mcfg := machine.NehalemConfig()
	res := &Result{ID: id, Title: title}
	err := eachBench(opts, res, opts.benchList(bench), func(bench string, part *Result) error {
		// 1. Capture the CPI/BW curve with Cache Pirating.
		cfg := opts.profileConfig(mcfg)
		curve, rep, err := core.Profile(cfg, factory(bench))
		if err != nil {
			return err
		}
		curve.Name = bench
		part.Add(report.CurveTable(bench+" — pirate-captured curve", curve))
		part.Notef("%s: pirate threads used: %d", bench, rep.ThreadsUsed)

		// 2. Measure real co-run throughput for 1..4 instances. The warm-up
		// must cover the benchmarks' slow-circulating working-set tails or
		// solo and co-run runs both measure cold misses and scaling looks
		// deceptively ideal.
		maxBW := mcfg.DRAM.BytesPerCycle * mcfg.CPU.FreqHz / 1e9
		thr, aggBW, err := throughputSeries(mcfg, factory(bench), opts.Seed, mcfg.Cores,
			10*opts.IntervalInstrs, 2*opts.IntervalInstrs)
		if err != nil {
			return err
		}

		// 3. Predict scaling from the curve (equal cache shares + the
		// bandwidth cap).
		preds, err := analysis.PredictScalingSeries(curve, mcfg.Cores, mcfg.L3.Size, maxBW)
		if err != nil {
			return err
		}

		t := report.NewTable(bench+" — throughput scaling (normalised to 1 instance)",
			"instances", "measured", "ideal", "predicted", "required BW", "measured BW", "BW-limited")
		for i, p := range preds {
			t.Add(
				report.F(float64(p.Instances), 0),
				report.F(thr[i], 2),
				report.F(float64(p.Instances), 0),
				report.F(p.PredictedThroughput, 2),
				report.GBs(p.RequiredBandwidthGBs),
				report.GBs(aggBW[i]),
				boolStr(p.BandwidthLimited),
			)
		}
		part.Add(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Fig1Omnet reproduces Figure 1: OMNeT++'s imperfect scaling (the
// paper measures 3.0x at 4 instances) explained entirely by its CPI
// curve — the prediction needs no bandwidth correction.
func Fig1Omnet(opts Options) (*Result, error) {
	return scalingExperiment("fig1",
		"OMNeT++ scaling explained by the CPI curve", "omnetpp", opts)
}

// Fig2LBM reproduces Figure 2: LBM's CPI curve is flat, so cache
// sharing alone predicts perfect scaling — but its bandwidth demand
// exceeds the system's 10.4 GB/s at 4 instances, capping throughput at
// the achievable/required ratio (the paper's 87% -> 3.5x).
func Fig2LBM(opts Options) (*Result, error) {
	return scalingExperiment("fig2",
		"LBM scaling limited by off-chip bandwidth", "lbm", opts)
}
