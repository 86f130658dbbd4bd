package core

import (
	"context"
	"fmt"
	"slices"

	"cachepirate/internal/analysis"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
)

// This file is the one measurement loop under every entry point of the
// package: a co-run rig (a fresh machine with the Target and the Pirate
// on it), the Fig. 5 schedule over a rig, and the §III-C
// thread-count scan over fresh rigs. The interval measurement and the
// scan each live here once, and every warm-up is a machine.Warm rule
// stated as data; the exported functions are short sequences of these
// operations.

// target describes the measured program, and the Pirate beside it, to
// the rig. A one-core Target and a many-rank one run the same code;
// what differs between them is this data, which resolve fills in.
type target struct {
	// cores are the Target's cores. The first paces every run: intervals
	// and warm-ups are counted in its instructions, the others keep up.
	cores []int
	// pirate are the Pirate's cores: every core the Target does not use,
	// in ascending order. Their count caps the pirate threads.
	pirate []int
	// attach binds the Target's generators to its cores on a fresh
	// machine.
	attach func(*machine.Machine) error
	// warm lets the Target refill cache it has just been given (or, at
	// the start of a run, all of it), the Pirate halted or idle.
	warm machine.Warm
	// settle lets the Target meet a freshly warmed Pirate before a
	// thread-test interval.
	settle machine.Warm
}

// attacher binds a Target's generators, built from seed, to its cores
// on a fresh machine.
type attacher func(m *machine.Machine, cores []int, seed uint64) error

// eachCore attaches one workload instance per core, seeded per core so
// that ranks are decorrelated; a one-core Target gets newGen(seed).
func eachCore(newGen GenFactory) attacher {
	return func(m *machine.Machine, cores []int, seed uint64) error {
		for i, c := range cores {
			if err := m.Attach(c, newGen(seed+uint64(i)*137)); err != nil {
				return err
			}
		}
		return nil
	}
}

// resolve fills in cfg's defaults, checks it and describes its Target,
// before any machine is built. With no ranks the Target is the
// paper's: one process on core 0, attached from the defaulted seed,
// warmed by Stable(W) and settled by Fixed(W). With ranks it is one
// rank per listed core, attached from the seed as given — a zero Seed
// reaches the ranks as zero, and defaulting it would move every
// many-rank number measured with the zero Config — and warmed and
// settled to one floor, Fixed(3W): Stable would move every many-rank
// number too, so the two rules stay side by side until a change that
// may re-pin them (ROADMAP item 29). Either way the Pirate gets every
// other core.
func resolve(cfg Config, ranks []int, attach attacher) (Config, target, error) {
	seed := cfg.Seed
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, target{}, err
	}
	w := cfg.TargetWarmupInstrs
	tgt := target{cores: ranks, warm: machine.Fixed(3 * w), settle: machine.Fixed(3 * w)}
	if ranks == nil {
		seed = cfg.Seed
		tgt = target{cores: []int{0}, warm: machine.Stable(w), settle: machine.Fixed(w)}
	}
	for i, c := range tgt.cores {
		if c < 0 || c >= cfg.Machine.Cores || slices.Contains(tgt.cores[:i], c) {
			return cfg, target{}, fmt.Errorf("core: target core %d out of range or listed twice", c)
		}
	}
	for c := range cfg.Machine.Cores {
		if !slices.Contains(tgt.cores, c) {
			tgt.pirate = append(tgt.pirate, c)
		}
	}
	if len(tgt.pirate) == 0 {
		return cfg, target{}, fmt.Errorf("core: no cores left for the pirate")
	}
	// A thread count the Pirate cannot field would otherwise surface
	// only when SetWSS refuses it, after the whole initial Target
	// warm-up.
	if cfg.Threads < 0 || cfg.Threads > len(tgt.pirate) {
		return cfg, target{}, fmt.Errorf("core: %d pirate threads outside [0, %d pirate cores] (0 = detect)", cfg.Threads, len(tgt.pirate))
	}
	cores := tgt.cores
	tgt.attach = func(m *machine.Machine) error { return attach(m, cores, seed) }
	return cfg, tgt, nil
}

// rig is one co-run: a fresh machine with the Target attached, the
// Pirate suspended on its cores, and the counters of its last measured
// interval.
type rig struct {
	cfg    Config
	tgt    target
	m      *machine.Machine
	pirate *Pirate
	last   []counters.Sample
}

func newRig(cfg Config, tgt target) (*rig, error) {
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	if err := tgt.attach(m); err != nil {
		return nil, err
	}
	pirate, err := NewPirate(m, tgt.pirate)
	if err != nil {
		return nil, err
	}
	return &rig{cfg: cfg, tgt: tgt, m: m, pirate: pirate}, nil
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

// measure runs one interval (IntervalInstrs of the Target's pacing
// core, everything else runnable keeping up) and reads it off the
// counters: the Target's metrics summed over its cores (aggregate CPI
// is total cycles over total instructions, bandwidth and event ratios
// sum over ranks) and the Pirate's fetch ratio summed over its threads
// (total fetches over total accesses; a Pirate stealing nothing has
// ratio 0), which decides whether the interval is trusted.
func (r *rig) measure(cycle int, size int64) (TimelineSample, error) {
	start := r.m.ReadCounters(r.tgt.cores[0]).Instructions
	iv, err := counters.Interval(r.m, func() error { return r.m.RunInstructions(r.tgt.cores[0], r.cfg.IntervalInstrs) })
	if err != nil {
		return TimelineSample{}, err
	}
	r.last = iv
	ts := sum(iv, r.tgt.cores)
	pfr := sum(iv, r.pirate.cores).FetchRatio()
	return TimelineSample{
		Cycle:            cycle,
		CacheBytes:       size,
		StartInstr:       start,
		CPI:              ts.CPI(),
		BandwidthGBs:     ts.BandwidthGBs(r.cfg.Machine.CPU.FreqHz),
		FetchRatio:       ts.FetchRatio(),
		MissRatio:        ts.MissRatio(),
		PirateFetchRatio: pfr,
		Trusted:          pfr <= FetchThreshold,
	}, nil
}

// sum adds up the given cores' events of one interval.
func sum(iv []counters.Sample, cores []int) counters.Sample {
	var s counters.Sample
	for _, c := range cores {
		s = s.Add(iv[c])
	}
	return s
}

// warm runs rule w on the Target's cores.
func (r *rig) warm(w machine.Warm) error {
	return r.m.Warm(w, r.tgt.cores...)
}

// resize is one step of the schedule: the Pirate moves to wss bytes and
// whichever party's cache grew warms it. A growing Pirate steals, then
// both run briefly so the Target re-converges to its steady state at
// the smaller size. Otherwise the Target's cache grew (or, at the first
// size of the first cycle, nothing moved): it runs with the Pirate
// halted until its warm-up rule is satisfied — or the first measurement
// after a cycle wrap sees cold misses as capacity misses. The co-run
// after a steal is paced by the first rank alone, as every interval is.
func (r *rig) resize(wss int64, threads int) error {
	if wss > r.pirate.WSS() {
		if err := r.steal(wss, threads); err != nil {
			return err
		}
		return r.m.Warm(machine.Fixed(r.cfg.TargetWarmupInstrs/2), r.tgt.cores[0])
	}
	if err := r.pirate.SetWSS(wss, threads); err != nil {
		return err
	}
	r.pirate.Suspend()
	err := r.warm(r.tgt.warm)
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
func schedule(cfg Config, tgt target) (*Timeline, *Report, error) {
	if err := cfg.checkGrid(); err != nil {
		return nil, nil, err
	}
	rep := &Report{ThreadsUsed: cfg.Threads}
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
	if err := r.m.RunInstructions(tgt.cores[0], cfg.AttachInstr); err != nil {
		return nil, nil, err
	}
	if err := r.warm(tgt.warm); err != nil {
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
		rep.RankCPIs = append(rep.RankCPIs, r.last[tc].CPI())
	}
	rep.TargetInstructions = r.m.ReadCounters(tgt.cores[0]).Instructions
	rep.WallCycles = r.m.Now()
	return tl, rep, nil
}

// scheduleCurve runs the schedule and averages its intervals per size
// into a curve of the given name.
func scheduleCurve(cfg Config, tgt target, name string) (*analysis.Curve, *Report, error) {
	tl, rep, err := schedule(cfg, tgt)
	if err != nil {
		return nil, nil, err
	}
	curve := tl.Curve()
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
	if err := r.warm(tgt.settle); err != nil {
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
	maxThreads := len(tgt.pirate)
	if pool := (runner.Pool{Workers: cfg.Workers}); pool.EffectiveWorkers(maxThreads) > 1 {
		ahead, err := runner.Map(context.Background(), pool, maxThreads,
			func(_ context.Context, i int) (float64, error) { return cpiWith(i + 1) })
		if err != nil {
			return 0, nil, err
		}
		cpiWith = func(threads int) (float64, error) { return ahead[threads-1], nil }
	}
	var cpis []float64
	best := 1
	for t := 1; t <= maxThreads; t++ {
		cpi, err := cpiWith(t)
		if err != nil {
			return 0, nil, err
		}
		cpis = append(cpis, cpi)
		if t == 1 {
			continue
		}
		if (cpi-cpis[0])/cpis[0] <= SlowdownThreshold {
			best = t
		} else {
			break
		}
	}
	return best, cpis, nil
}
