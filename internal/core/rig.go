package core

import (
	"context"
	"fmt"
	"slices"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
)

// This file is the one measurement loop under every entry point of the
// package: a co-run rig (a fresh machine with the Target, the Pirate
// and a PMU on it), the Fig. 5 schedule over a rig, and the §III-C
// thread-count scan over fresh rigs. The warm-up policy, the interval
// measurement and the scan each live here once; the exported functions
// are short sequences of these operations.

// target describes the measured program to the rig. A one-core Target
// and a many-rank one run the same code; what differs between them is
// this data.
type target struct {
	// cores are the Target's cores. The first paces every run: intervals
	// and warm-ups are counted in its instructions, the others keep up.
	cores []int
	// attach binds the Target's generators to cores on a fresh machine.
	attach func(*machine.Machine) error
	// warm lets the Target refill cache it has just been given (or, at
	// the start of a run, all of it), the Pirate halted or idle.
	warm func(*rig) error
	// settle lets the Target meet a freshly warmed Pirate before a
	// thread-test interval.
	settle func(*rig) error
}

// soloTarget resolves cfg for the paper's Target, one process on
// cfg.TargetCore: defaults, validation, descriptor.
func soloTarget(cfg Config, newGen GenFactory) (Config, target, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, target{}, err
	}
	return cfg, target{
		cores:  []int{cfg.TargetCore},
		attach: func(m *machine.Machine) error { return m.Attach(cfg.TargetCore, newGen(cfg.Seed)) },
		warm:   (*rig).warmStable,
		settle: func(r *rig) error { return r.run(r.cfg.TargetWarmupInstrs) },
	}, nil
}

// rankTarget resolves cfg for a Target of one rank per listed core.
// The pirate defaults to every core that is not a rank, and a core
// listed as both is refused here, before any machine is built
// (NewPirate would re-attach the rank's core and suspend it).
func rankTarget(cfg Config, cores []int, attach func(*machine.Machine) error) (Config, target, error) {
	if len(cores) == 0 {
		return cfg, target{}, fmt.Errorf("core: no target cores")
	}
	cfg.TargetCore = cores[0]
	if len(cfg.PirateCores) == 0 {
		if cfg.Machine.Cores == 0 {
			cfg.Machine = machine.NehalemConfig()
		}
		for i := 0; i < cfg.Machine.Cores; i++ {
			if !slices.Contains(cores, i) {
				cfg.PirateCores = append(cfg.PirateCores, i)
			}
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, target{}, err
	}
	for _, tc := range cores {
		if slices.Contains(cfg.PirateCores, tc) {
			return cfg, target{}, fmt.Errorf("core: core %d is both target rank and pirate", tc)
		}
	}
	return cfg, target{cores: cores, attach: attach, warm: (*rig).warmFloor, settle: (*rig).warmFloor}, nil
}

// rig is one co-run: a fresh machine with the Target attached, the
// Pirate suspended on its cores, and the counters both are read
// through.
type rig struct {
	cfg    Config
	tgt    target
	m      *machine.Machine
	pirate *Pirate
	pmu    *counters.PMU
}

func newRig(cfg Config, tgt target) (*rig, error) {
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	if err := tgt.attach(m); err != nil {
		return nil, err
	}
	pirate, err := NewPirate(m, cfg.PirateCores)
	if err != nil {
		return nil, err
	}
	return &rig{cfg: cfg, tgt: tgt, m: m, pirate: pirate, pmu: counters.NewPMU(m)}, nil
}

// run advances the machine until the Target's pacing core has retired
// n more instructions; everything else runnable makes progress too.
func (r *rig) run(n uint64) error {
	return r.m.RunInstructions(r.tgt.cores[0], n)
}

// steal sets the Pirate to wss bytes over threads threads and sweeps
// them into the shared cache with the Target halted — the warm-up step
// of Fig. 5, and the package's only one.
func (r *rig) steal(wss int64, threads int) error {
	if err := r.pirate.SetWSS(wss, threads); err != nil {
		return err
	}
	for _, c := range r.tgt.cores {
		r.m.Suspend(c)
	}
	err := r.pirate.Warm(r.cfg.PirateWarmPasses)
	for _, c := range r.tgt.cores {
		r.m.Resume(c)
	}
	return err
}

// measure runs one interval and reads it off the counters: the Target's
// metrics summed over its cores (aggregate CPI is total cycles over
// total instructions, bandwidth and event ratios sum over ranks) and
// the Pirate's fetch ratio summed over its threads (total fetches over
// total accesses; a Pirate stealing nothing has ratio 0), which decides
// whether the interval is trusted.
func (r *rig) measure(cycle int, size int64) (TimelineSample, error) {
	start := r.m.ReadCounters(r.tgt.cores[0]).Instructions
	r.pmu.MarkAll()
	if err := r.run(r.cfg.IntervalInstrs); err != nil {
		return TimelineSample{}, err
	}
	ts := r.interval(r.tgt.cores)
	pfr := r.interval(r.pirate.cores).FetchRatio()
	return TimelineSample{
		Cycle:            cycle,
		CacheBytes:       size,
		StartInstr:       start,
		CPI:              ts.CPI(),
		BandwidthGBs:     ts.BandwidthGBs(r.cfg.Machine.CPU.FreqHz),
		FetchRatio:       ts.FetchRatio(),
		MissRatio:        ts.MissRatio(),
		PirateFetchRatio: pfr,
		Trusted:          pfr <= r.cfg.FetchThreshold,
	}, nil
}

// interval sums the given cores' events since the last mark.
func (r *rig) interval(cores []int) counters.Sample {
	var sum counters.Sample
	for _, c := range cores {
		sum = sum.Add(r.pmu.ReadInterval(c))
	}
	return sum
}

// warmStable is the one-core Target's warm-up rule: run it in
// TargetWarmupInstrs chunks until both its fetch ratio and its L3
// occupancy stabilise (consecutive chunks within 10% and 2%
// respectively), bounded at 12 chunks. Fetch-ratio stability alone
// cannot distinguish steady-state capacity misses from a steady *cold*
// scan (a 6MB sweep fetches at a constant rate for its entire first
// pass); occupancy growth does — as long as the Target's footprint is
// still filling in, keep warming.
func (r *rig) warmStable() error {
	core := r.tgt.cores[0]
	prevFR := -1.0
	prevOcc := int64(-1)
	l3 := r.m.Hierarchy().L3()
	for i := 0; i < 12; i++ {
		r.pmu.Mark(core)
		if err := r.run(r.cfg.TargetWarmupInstrs); err != nil {
			return err
		}
		fr := r.pmu.ReadInterval(core).FetchRatio()
		occ := l3.ResidentBytes(cache.Owner(core))
		if prevFR >= 0 {
			d := fr - prevFR
			if d < 0 {
				d = -d
			}
			limit := 0.1 * fr
			if 0.1*prevFR > limit {
				limit = 0.1 * prevFR
			}
			frStable := d <= limit+0.001
			occStable := occ <= prevOcc+prevOcc/50+4096
			if frStable && occStable {
				return nil
			}
		}
		prevFR, prevOcc = fr, occ
	}
	return nil
}

// warmFloor is the many-rank Target's warm-up rule: every rank runs to
// the same instruction floor, three warm-up lengths past the pacing
// rank. Folding it into warmStable would move every many-rank number,
// so the two rules stay side by side until a change that may re-pin
// them (ROADMAP item 2).
func (r *rig) warmFloor() error {
	floor := r.m.ReadCounters(r.tgt.cores[0]).Instructions + r.cfg.TargetWarmupInstrs*3
	for _, tc := range r.tgt.cores {
		if cur := r.m.ReadCounters(tc).Instructions; cur < floor {
			if err := r.m.RunInstructions(tc, floor-cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// resize is one step of the schedule: the Pirate moves to wss bytes and
// whichever party's cache grew warms it. A growing Pirate steals, then
// both run briefly so the Target re-converges to its steady state at
// the smaller size. Otherwise the Target's cache grew (or, at the first
// size of the first cycle, nothing moved): it runs with the Pirate
// halted until its warm-up rule is satisfied — or the first measurement
// after a cycle wrap sees cold misses as capacity misses.
func (r *rig) resize(wss int64, threads int) error {
	if wss > r.pirate.WSS() {
		if err := r.steal(wss, threads); err != nil {
			return err
		}
		return r.run(r.cfg.TargetWarmupInstrs / 2)
	}
	if err := r.pirate.SetWSS(wss, threads); err != nil {
		return err
	}
	r.pirate.Suspend()
	err := r.tgt.warm(r)
	r.pirate.Resume()
	return err
}

// schedule is the dynamic working-set adjustment of Fig. 5: one Target
// execution on one rig, every size measured once per cycle, largest
// first, so that within a cycle the Pirate only grows and between
// cycles it collapses. Every interval is kept; Timeline.Curve averages
// them. The loop shares the one live machine — a single Target
// execution is the methodology — so it is serial; Config.Workers
// reaches only the thread-count scan run when no count is fixed. The
// report's RankCPIs are the last interval's.
func schedule(cfg Config, tgt target) (*Timeline, *MultiReport, error) {
	rep := &MultiReport{Report: Report{ThreadsUsed: cfg.Threads}}
	if rep.ThreadsUsed == 0 {
		t, cpis, err := scanThreads(cfg, tgt)
		if err != nil {
			return nil, nil, err
		}
		rep.ThreadsUsed, rep.ThreadTestCPIs = t, cpis
	}
	r, err := newRig(cfg, tgt)
	if err != nil {
		return nil, nil, err
	}
	r.pirate.SetNaiveSplit(cfg.NaiveSplit)
	// Fast-forward: the Target runs alone to the attach point, then warms
	// with the full cache.
	if err := r.run(cfg.AttachInstr); err != nil {
		return nil, nil, err
	}
	if err := tgt.warm(r); err != nil {
		return nil, nil, err
	}

	sizes := slices.Clone(cfg.Sizes)
	slices.Sort(sizes)
	slices.Reverse(sizes)
	tl := &Timeline{}
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		for _, size := range sizes {
			if err := r.resize(cfg.Machine.L3.Size-size, rep.ThreadsUsed); err != nil {
				return nil, nil, err
			}
			s, err := r.measure(cycle, size)
			if err != nil {
				return nil, nil, err
			}
			tl.Samples = append(tl.Samples, s)
		}
	}
	for _, tc := range tgt.cores {
		rep.RankCPIs = append(rep.RankCPIs, r.pmu.ReadInterval(tc).CPI())
	}
	rep.TargetInstructions = r.m.ReadCounters(tgt.cores[0]).Instructions
	rep.WallCycles = r.m.Now()
	return tl, rep, nil
}

// scheduleCurve runs the schedule and averages its intervals per size
// into a curve of the given name.
func scheduleCurve(cfg Config, tgt target, name string) (*analysis.Curve, *MultiReport, error) {
	tl, rep, err := schedule(cfg, tgt)
	if err != nil {
		return nil, nil, err
	}
	curve := tl.Curve(cfg.FetchThreshold)
	curve.Name = name
	return curve, rep, nil
}

// pirateCPI measures the Target's CPI on a fresh rig while a Pirate of
// the given working set and thread count co-runs: one point of the
// thread-count test, and of Table II's slowdown column.
func pirateCPI(cfg Config, tgt target, wss int64, threads int) (float64, error) {
	r, err := newRig(cfg, tgt)
	if err != nil {
		return 0, err
	}
	if err := r.steal(wss, threads); err != nil {
		return 0, err
	}
	if err := tgt.settle(r); err != nil {
		return 0, err
	}
	s, err := r.measure(0, cfg.Machine.L3.Size-wss)
	return s.CPI, err
}

// scanThreads is the §III-C safe-thread-count test: the Pirate steals
// a token StealStep, the Target's CPI (aggregate over its ranks, so a
// bandwidth-hungry rank on any core vetoes the extra thread) is
// measured with 1, 2, ... threads, and the highest count whose CPI
// stays within SlowdownThreshold of the one-thread CPI wins. One
// thread is always safe (two cores cannot saturate the L3 port).
//
// Each count runs on its own rig. On one worker the counts are measured
// as the scan asks for them, so its early break skips the rest; on more
// they are all measured up front and the same scan reads them back —
// the chosen count and the CPI list, cut at the break, are identical,
// the wide path merely measures counts the lazy one would have skipped.
func scanThreads(cfg Config, tgt target) (int, []float64, error) {
	cpiWith := func(threads int) (float64, error) {
		return pirateCPI(cfg, tgt, cfg.StealStep, threads)
	}
	if pool := (runner.Pool{Workers: cfg.Workers}); pool.EffectiveWorkers(cfg.MaxThreads) > 1 {
		ahead, err := runner.Map(context.Background(), pool, cfg.MaxThreads,
			func(_ context.Context, i int) (float64, error) { return cpiWith(i + 1) })
		if err != nil {
			return 0, nil, err
		}
		cpiWith = func(threads int) (float64, error) { return ahead[threads-1], nil }
	}
	var cpis []float64
	best := 1
	for t := 1; t <= cfg.MaxThreads; t++ {
		cpi, err := cpiWith(t)
		if err != nil {
			return 0, nil, err
		}
		cpis = append(cpis, cpi)
		if t == 1 {
			continue
		}
		if (cpi-cpis[0])/cpis[0] <= cfg.SlowdownThreshold {
			best = t
		} else {
			break
		}
	}
	return best, cpis, nil
}
