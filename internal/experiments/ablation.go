package experiments

import (
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
)

// The ablations quantify the design choices DESIGN.md calls out: how
// much each part of the Pirate's construction contributes to
// measurement quality.

// Abl1WayQuantum contrasts the way-granular working-set distribution
// (every L3 set loses the same number of ways — §II-B1's "steal the
// same number of cache-lines in every set") against a naive equal
// byte split across threads. The naive split leaves some sets with
// extra pirate lines and others with fewer; the resulting hot sets
// evict the Pirate and raise its fetch ratio, shrinking the trusted
// measurement range.
func Abl1WayQuantum(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "abl1", Title: "ablation: way-granular vs naive pirate span distribution"}
	bench := "omnetpp"
	if len(opts.Benchmarks) > 0 {
		bench = opts.Benchmarks[0]
	}

	run := func(naive bool) (trusted int, worstFR float64, err error) {
		cfg := opts.profileConfig(machine.NehalemConfig())
		cfg.Threads = 3
		if naive {
			cfg.NaiveSplit = true
		}
		curve, _, err := core.Profile(cfg, factory(bench))
		if err != nil {
			return 0, 0, err
		}
		for _, p := range curve.Points {
			if p.Trusted {
				trusted++
			}
			if p.PirateFetchRatio > worstFR {
				worstFR = p.PirateFetchRatio
			}
		}
		return trusted, worstFR, nil
	}

	qTrusted, qWorst, err := run(false)
	if err != nil {
		return nil, err
	}
	nTrusted, nWorst, err := run(true)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("trusted points of "+report.F(float64(len(opts.Sizes)), 0)+" sizes ("+bench+")",
		"distribution", "trusted points", "worst pirate fetch ratio")
	t.Add("way-granular (paper)", report.F(float64(qTrusted), 0), report.Pct(qWorst, 2))
	t.Add("naive equal split", report.F(float64(nTrusted), 0), report.Pct(nWorst, 2))
	res.Add(t)
	res.Notef("uneven per-set coverage creates hot sets where the Target evicts the Pirate")
	return res, nil
}

// Abl2WarmupPolicy contrasts the convergence-detected Target warm-up
// against fixed short warm-ups: without convergence detection the
// full-cache points after each measurement-cycle wrap see cold misses
// as capacity misses and the curve loses monotonicity.
func Abl2WarmupPolicy(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "abl2", Title: "ablation: adaptive vs truncated target warm-up"}
	bench := "omnetpp"
	if len(opts.Benchmarks) > 0 {
		bench = opts.Benchmarks[0]
	}

	run := func(warmInstrs uint64) (fullCacheCPI, halfCacheCPI float64, err error) {
		cfg := opts.profileConfig(machine.NehalemConfig())
		cfg.Threads = 1
		cfg.TargetWarmupInstrs = warmInstrs
		curve, _, err := core.Profile(cfg, factory(bench))
		if err != nil {
			return 0, 0, err
		}
		full := curve.Points[len(curve.Points)-1]
		half, err2 := curve.CPIAt(cfg.Machine.L3.Size / 2)
		if err2 != nil {
			return 0, 0, err2
		}
		return full.CPI, half, nil
	}

	goodFull, goodHalf, err := run(opts.IntervalInstrs)
	if err != nil {
		return nil, err
	}
	// Starve the warm-up: chunks 20x smaller bound the adaptive loop
	// to a fraction of the needed coverage.
	badFull, badHalf, err := run(opts.IntervalInstrs / 20)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("warm-up sensitivity ("+bench+")",
		"warm-up", "CPI @ full cache", "CPI @ half cache", "full <= half?")
	t.Add("adaptive (default)", report.F(goodFull, 3), report.F(goodHalf, 3), boolStr(goodFull <= goodHalf*1.02))
	t.Add("starved", report.F(badFull, 3), report.F(badHalf, 3), boolStr(badFull <= badHalf*1.02))
	res.Add(t)
	res.Notef("a starved warm-up inflates the full-cache point (cold misses measured as capacity misses)")
	return res, nil
}

// Abl3ThreadCount shows why the §III-C thread test exists: for an
// L3-bandwidth-hungry Target, forcing the maximum pirate thread count
// inflates the Target's measured CPI, while the auto-detected count
// stays within the slowdown budget.
func Abl3ThreadCount(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "abl3", Title: "ablation: pirate thread count vs target distortion"}
	bench := "libquantum"
	if len(opts.Benchmarks) > 0 {
		bench = opts.Benchmarks[0]
	}
	cfg := opts.profileConfig(machine.NehalemConfig())

	auto, cpis, err := core.DetermineThreads(cfg, factory(bench))
	if err != nil {
		return nil, err
	}
	t := report.NewTable("target CPI while the pirate steals a token 0.5MB ("+bench+")",
		"pirate threads", "target CPI", "slowdown vs 1 thread")
	for i, cpi := range cpis {
		sd := 0.0
		if i > 0 && cpis[0] > 0 {
			sd = cpi/cpis[0] - 1
		}
		t.Add(report.F(float64(i+1), 0), report.F(cpi, 3), report.Pct(sd, 1))
	}
	res.Add(t)
	res.Notef("auto-detected safe thread count: %d (threshold %s)", auto, report.Pct(core.SlowdownThreshold, 0))
	return res, nil
}
