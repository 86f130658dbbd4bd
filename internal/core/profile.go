package core

import (
	"context"
	"fmt"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
	"cachepirate/internal/workload"
)

// GenFactory builds a fresh workload instance from a seed. The harness
// needs factories rather than generators because several experiments
// (thread detection, fixed-size references, overhead baselines) run
// the Target on fresh machines. A factory must be safe for concurrent
// calls — each call returns an independent generator — because the
// fan-out entry points invoke it from pool workers (Config.Workers).
type GenFactory func(seed uint64) workload.Generator

// Config parameterises a profiling run.
type Config struct {
	// Machine is the system model; defaults to machine.NehalemConfig().
	Machine machine.Config
	// TargetCore is where the Target is pinned (default 0).
	TargetCore int
	// PirateCores are the cores available to pirate threads (default:
	// every core except TargetCore).
	PirateCores []int
	// Sizes are the Target-available cache sizes to measure, in bytes.
	// Default: 0.5MB steps from 0.5MB up to the full L3.
	Sizes []int64
	// IntervalInstrs is the measurement interval in Target
	// instructions (Fig. 5; the paper sweeps 10M/100M/1B, Table III).
	IntervalInstrs uint64
	// Cycles is how many measurement cycles to run; results are
	// averaged across cycles.
	Cycles int
	// TargetWarmupInstrs is how long the Target runs alone after its
	// available cache grows.
	TargetWarmupInstrs uint64
	// PirateWarmPasses is how many sweeps warm newly stolen space.
	PirateWarmPasses int
	// FetchThreshold is the Pirate fetch ratio above which a
	// measurement is untrusted (paper: 3%).
	FetchThreshold float64
	// SlowdownThreshold is the Target CPI increase allowed when adding
	// a pirate thread (paper: 1%).
	SlowdownThreshold float64
	// MaxThreads caps the pirate thread count (default:
	// len(PirateCores)).
	MaxThreads int
	// Threads fixes the pirate thread count, skipping auto-detection,
	// when > 0.
	Threads int
	// AttachInstr runs the Target alone for this many instructions
	// before pirating starts — the paper's "attach to a running Target
	// process and start the Pirate at specific Target instruction
	// addresses" (§III-A), used to align measurements with captured
	// trace windows (instruction counts stand in for code addresses in
	// the simulated machine).
	AttachInstr uint64
	// NaiveSplit distributes the pirate working set as equal byte
	// spans instead of whole way-size quanta; only the abl1 ablation
	// enables it.
	NaiveSplit bool
	// StealStep is the working-set granularity of the Table II
	// MaxStealable sweep and the thread-test token (default: 1/16 of
	// the L3, i.e. 0.5MB on the 8MB Nehalem).
	StealStep int64
	// Seed seeds the Target workload.
	Seed uint64
	// Workers bounds how many independent machine runs execute
	// concurrently in the fan-out entry points (ProfileFixedCurve's
	// per-size runs, DetermineThreads' per-thread-count runs). Each run
	// builds a fresh machine and generator from the factory, so results
	// are bit-identical at any width; <= 0 means one worker per CPU, 1
	// reproduces the historical serial order exactly. The per-size loop
	// inside a dynamic Profile/ProfileTimeline run is inherently serial
	// — it is a single Target execution, the paper's whole point — and
	// is not affected.
	Workers int
}

// withDefaults returns cfg with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.Machine.Cores == 0 {
		c.Machine = machine.NehalemConfig()
	}
	if len(c.PirateCores) == 0 {
		for i := 0; i < c.Machine.Cores; i++ {
			if i != c.TargetCore {
				c.PirateCores = append(c.PirateCores, i)
			}
		}
	}
	if len(c.Sizes) == 0 {
		const step = 512 << 10
		for s := int64(step); s <= c.Machine.L3.Size; s += step {
			c.Sizes = append(c.Sizes, s)
		}
	}
	if c.IntervalInstrs == 0 {
		c.IntervalInstrs = 250_000
	}
	if c.Cycles == 0 {
		c.Cycles = 3
	}
	if c.TargetWarmupInstrs == 0 {
		c.TargetWarmupInstrs = 150_000
	}
	if c.PirateWarmPasses == 0 {
		c.PirateWarmPasses = 2
	}
	if c.FetchThreshold == 0 {
		c.FetchThreshold = 0.03
	}
	if c.SlowdownThreshold == 0 {
		c.SlowdownThreshold = 0.01
	}
	if c.MaxThreads == 0 || c.MaxThreads > len(c.PirateCores) {
		c.MaxThreads = len(c.PirateCores)
	}
	if c.StealStep == 0 {
		c.StealStep = c.Machine.L3.Size / 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.TargetCore < 0 || c.TargetCore >= c.Machine.Cores {
		return fmt.Errorf("core: target core %d out of range", c.TargetCore)
	}
	for _, pc := range c.PirateCores {
		if pc == c.TargetCore {
			return fmt.Errorf("core: pirate core %d collides with the target (threads must be pinned to other cores)", pc)
		}
		if pc < 0 || pc >= c.Machine.Cores {
			return fmt.Errorf("core: pirate core %d out of range", pc)
		}
	}
	for _, s := range c.Sizes {
		if s <= 0 || s > c.Machine.L3.Size {
			return fmt.Errorf("core: size %d outside (0, L3=%d]", s, c.Machine.L3.Size)
		}
	}
	// Checked here, before any machine step: a thread count the Pirate
	// cannot field would otherwise surface only when SetWSS refuses it,
	// after the whole initial Target warm-up, and a negative cycle count
	// skips every measurement and averages nothing into NaN points.
	if c.Threads < 0 || c.Threads > len(c.PirateCores) {
		return fmt.Errorf("core: %d pirate threads outside [0, %d pirate cores] (0 = detect)", c.Threads, len(c.PirateCores))
	}
	if c.MaxThreads < 0 {
		return fmt.Errorf("core: negative pirate thread cap %d", c.MaxThreads)
	}
	if c.Cycles < 0 {
		return fmt.Errorf("core: negative measurement cycle count %d", c.Cycles)
	}
	return nil
}

// Report carries metadata about a profiling run.
type Report struct {
	// ThreadsUsed is the pirate thread count chosen by the §III-C test
	// (or fixed by Config.Threads).
	ThreadsUsed int
	// ThreadTestCPIs are the Target CPIs measured with 1..N pirate
	// threads stealing a token amount of cache.
	ThreadTestCPIs []float64
	// TargetInstructions is how many Target instructions the whole run
	// retired (warm-ups + measurements).
	TargetInstructions uint64
	// WallCycles is the machine time the run took.
	WallCycles float64
}

// Profile captures a full metric curve from a single Target execution
// using dynamic working-set adjustment (Fig. 5). Within each
// measurement cycle the Pirate's working set only grows (so each
// change warms with the Pirate running alone briefly); between cycles
// it collapses and the Target warms its reclaimed space.
//
// The per-size loop shares the one live machine — a single Target
// execution is the methodology — so it is inherently serial;
// Config.Workers parallelises only the fresh-machine fan-out this
// function calls (DetermineThreads). Use ProfileFixedCurve when you
// want the per-size runs themselves fanned across cores.
func Profile(cfg Config, newGen GenFactory) (*analysis.Curve, *Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	rep := &Report{ThreadsUsed: cfg.Threads}
	if rep.ThreadsUsed == 0 {
		t, cpis, err := DetermineThreads(cfg, newGen)
		if err != nil {
			return nil, nil, err
		}
		rep.ThreadsUsed, rep.ThreadTestCPIs = t, cpis
	}

	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Attach(cfg.TargetCore, newGen(cfg.Seed)); err != nil {
		return nil, nil, err
	}
	pirate, err := NewPirate(m, cfg.PirateCores)
	if err != nil {
		return nil, nil, err
	}
	pirate.SetNaiveSplit(cfg.NaiveSplit)
	pmu := counters.NewPMU(m)

	// Fast-forward: let the Target run alone to the attach point.
	if cfg.AttachInstr > 0 {
		if err := m.RunInstructions(cfg.TargetCore, cfg.AttachInstr); err != nil {
			return nil, nil, err
		}
	}

	// Initial Target warm-up with the full cache.
	if err := warmTarget(cfg, m, pmu); err != nil {
		return nil, nil, err
	}

	// Descending sizes: the Pirate grows within a cycle.
	sizes := append([]int64(nil), cfg.Sizes...)
	sortInt64Desc(sizes)

	type acc struct {
		cpi, bw, fetch, miss, pirateFR float64
		n                              int
	}
	accs := make(map[int64]*acc, len(sizes))
	for _, s := range sizes {
		accs[s] = &acc{}
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		for _, size := range sizes {
			pwss := cfg.Machine.L3.Size - size
			grew := pwss > pirate.WSS()
			if err := pirate.SetWSS(pwss, rep.ThreadsUsed); err != nil {
				return nil, nil, err
			}
			if pwss > 0 && grew {
				// Pirate warms its new space with the Target halted,
				// then both run briefly so the Target re-converges to
				// its steady state at the smaller size.
				m.Suspend(cfg.TargetCore)
				if err := pirate.Warm(cfg.PirateWarmPasses); err != nil {
					return nil, nil, err
				}
				m.Resume(cfg.TargetCore)
				if err := m.RunInstructions(cfg.TargetCore, cfg.TargetWarmupInstrs/2); err != nil {
					return nil, nil, err
				}
			} else {
				// Target's cache grew: it runs alone to warm it,
				// until its fetch ratio stabilises (otherwise the
				// first measurement after a cycle wrap sees cold
				// misses as capacity misses).
				pirate.Suspend()
				if err := warmTarget(cfg, m, pmu); err != nil {
					return nil, nil, err
				}
				pirate.Resume()
			}

			pmu.MarkAll()
			if err := m.RunInstructions(cfg.TargetCore, cfg.IntervalInstrs); err != nil {
				return nil, nil, err
			}
			ts := pmu.ReadInterval(cfg.TargetCore)
			a := accs[size]
			a.cpi += ts.CPI()
			a.bw += ts.BandwidthGBs(cfg.Machine.CPU.FreqHz)
			a.fetch += ts.FetchRatio()
			a.miss += ts.MissRatio()
			a.pirateFR += pirateFetchRatio(pmu, pirate)
			a.n++
		}
	}

	curve := &analysis.Curve{Name: "pirate"}
	for _, s := range sizes {
		a := accs[s]
		n := float64(a.n)
		pfr := a.pirateFR / n
		curve.Points = append(curve.Points, analysis.Point{
			CacheBytes:       s,
			CPI:              a.cpi / n,
			BandwidthGBs:     a.bw / n,
			FetchRatio:       a.fetch / n,
			MissRatio:        a.miss / n,
			PirateFetchRatio: pfr,
			Trusted:          pfr <= cfg.FetchThreshold,
			Samples:          a.n,
		})
	}
	curve.Sort()
	rep.TargetInstructions = m.ReadCounters(cfg.TargetCore).Instructions
	rep.WallCycles = m.Now()
	return curve, rep, nil
}

// warmTarget runs the Target in TargetWarmupInstrs chunks until both
// its fetch ratio and its L3 occupancy stabilise (consecutive chunks
// within 10% and 2% respectively), bounded at 12 chunks. Fetch-ratio
// stability alone cannot distinguish steady-state capacity misses
// from a steady *cold* scan (a 6MB sweep fetches at a constant rate
// for its entire first pass); occupancy growth does — as long as the
// Target's footprint is still filling in, keep warming.
func warmTarget(cfg Config, m *machine.Machine, pmu *counters.PMU) error {
	prevFR := -1.0
	prevOcc := int64(-1)
	l3 := m.Hierarchy().L3()
	owner := cache.Owner(cfg.TargetCore)
	for i := 0; i < 12; i++ {
		pmu.Mark(cfg.TargetCore)
		if err := m.RunInstructions(cfg.TargetCore, cfg.TargetWarmupInstrs); err != nil {
			return err
		}
		fr := pmu.ReadInterval(cfg.TargetCore).FetchRatio()
		occ := l3.ResidentBytes(owner)
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

// pirateFetchRatio aggregates the active pirate threads' interval
// fetch ratio (total fetches / total accesses). A pirate stealing
// nothing trivially has ratio 0.
func pirateFetchRatio(pmu *counters.PMU, p *Pirate) float64 {
	var sum counters.Sample
	for _, c := range p.cores {
		sum = sum.Add(pmu.ReadInterval(c))
	}
	return sum.FetchRatio()
}

// DetermineThreads implements the §III-C safe-thread-count test: the
// Pirate steals a token 0.5MB, the Target's CPI is measured with 1, 2,
// ... threads, and the highest count whose CPI stays within
// SlowdownThreshold of the single-thread CPI wins. One thread is
// always safe (two cores cannot saturate the L3 port).
//
// Each thread count runs on its own fresh machine, so with Workers !=
// 1 the candidate CPIs are measured concurrently and the serial
// early-break scan is replayed over them afterwards — the chosen count
// and the reported CPI list (truncated at the break point) are
// byte-identical to the serial path; the parallel path merely measures
// some counts the serial path would have skipped.
func DetermineThreads(cfg Config, newGen GenFactory) (int, []float64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, nil, err
	}
	tokenWSS := cfg.StealStep

	if (runner.Pool{Workers: cfg.Workers}).EffectiveWorkers(cfg.MaxThreads) == 1 {
		// Serial: evaluate lazily with the historical early break, so
		// -j 1 does exactly the work it always did.
		var cpis []float64
		best := 1
		for t := 1; t <= cfg.MaxThreads; t++ {
			cpi, err := targetCPIWithPirate(cfg, newGen, tokenWSS, t)
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
	all, err := runner.Map(context.Background(), runner.Pool{Workers: cfg.Workers}, cfg.MaxThreads,
		func(_ context.Context, i int) (float64, error) {
			return targetCPIWithPirate(cfg, newGen, tokenWSS, i+1)
		})
	if err != nil {
		return 0, nil, err
	}
	// Replay the serial scan, including its truncation at the first
	// over-threshold count, so the outputs match the serial path.
	var cpis []float64
	best := 1
	for t := 1; t <= cfg.MaxThreads; t++ {
		cpi := all[t-1]
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

// targetCPIWithPirate measures the Target's CPI on a fresh machine
// while a pirate with the given working set and thread count co-runs.
func targetCPIWithPirate(cfg Config, newGen GenFactory, pwss int64, threads int) (float64, error) {
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return 0, err
	}
	if err := m.Attach(cfg.TargetCore, newGen(cfg.Seed)); err != nil {
		return 0, err
	}
	pirate, err := NewPirate(m, cfg.PirateCores)
	if err != nil {
		return 0, err
	}
	if err := pirate.SetWSS(pwss, threads); err != nil {
		return 0, err
	}
	m.Suspend(cfg.TargetCore)
	if err := pirate.Warm(cfg.PirateWarmPasses); err != nil {
		return 0, err
	}
	m.Resume(cfg.TargetCore)
	if err := m.RunInstructions(cfg.TargetCore, cfg.TargetWarmupInstrs); err != nil {
		return 0, err
	}
	pmu := counters.NewPMU(m)
	pmu.MarkAll()
	if err := m.RunInstructions(cfg.TargetCore, cfg.IntervalInstrs); err != nil {
		return 0, err
	}
	return pmu.ReadInterval(cfg.TargetCore).CPI(), nil
}

func sortInt64Desc(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
