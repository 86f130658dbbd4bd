package core

// StealResult reports how much cache the Pirate could hold against a
// particular Target (§III-C / Table II).
type StealResult struct {
	Threads int
	// MaxWSS is the largest pirate working set whose fetch ratio
	// stayed under the threshold while co-running with the Target.
	MaxWSS int64
	// FetchRatios maps each probed working-set size to the measured
	// pirate fetch ratio, in probe order.
	ProbedWSS   []int64
	FetchRatios []float64
}

// MaxStealable sweeps the Pirate's working set upward in 0.5MB steps
// (threads fixed) and returns the largest amount it can steal from the
// given Target with its fetch ratio under cfg.FetchThreshold. This is
// the Table II measurement: when the Pirate's fetch ratio is zero its
// whole working set is resident; at 3% it holds 97-100% of it.
func MaxStealable(cfg Config, newGen GenFactory, threads int) (StealResult, error) {
	cfg, tgt, err := soloTarget(cfg, newGen)
	if err != nil {
		return StealResult{}, err
	}
	if threads <= 0 {
		threads = 1
	}
	res := StealResult{Threads: threads}
	r, err := newRig(cfg, tgt)
	if err != nil {
		return StealResult{}, err
	}
	// Warm the Target once with the full cache.
	if err := r.run(cfg.TargetWarmupInstrs); err != nil {
		return StealResult{}, err
	}

	step := cfg.StealStep
	for wss := step; wss < cfg.Machine.L3.Size; wss += step {
		if err := r.steal(wss, threads); err != nil {
			return StealResult{}, err
		}
		// Let contention settle, then measure the pirate.
		if err := r.run(cfg.TargetWarmupInstrs / 2); err != nil {
			return StealResult{}, err
		}
		s, err := r.measure(0, cfg.Machine.L3.Size-wss)
		if err != nil {
			return StealResult{}, err
		}
		fr := s.PirateFetchRatio
		res.ProbedWSS = append(res.ProbedWSS, wss)
		res.FetchRatios = append(res.FetchRatios, fr)
		if fr <= cfg.FetchThreshold {
			res.MaxWSS = wss
		}
		// Keep probing: a temporary dip should not end the sweep, but
		// two consecutive failures past the best point means the
		// pirate has hit its ceiling.
		if fr > cfg.FetchThreshold && wss-res.MaxWSS >= 2*step {
			break
		}
	}
	return res, nil
}

// TargetSlowdown measures the Target's CPI with the pirate stealing
// wss bytes using t1 and then t2 threads, returning
// (cpi2-cpi1)/cpi1 — the Table II rightmost column.
func TargetSlowdown(cfg Config, newGen GenFactory, wss int64, t1, t2 int) (float64, error) {
	cfg, tgt, err := soloTarget(cfg, newGen)
	if err != nil {
		return 0, err
	}
	cpi1, err := pirateCPI(cfg, tgt, wss, t1)
	if err != nil {
		return 0, err
	}
	cpi2, err := pirateCPI(cfg, tgt, wss, t2)
	if err != nil {
		return 0, err
	}
	if cpi1 == 0 {
		return 0, nil
	}
	return (cpi2 - cpi1) / cpi1, nil
}
