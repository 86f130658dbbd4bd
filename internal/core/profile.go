package core

import (
	"fmt"

	"cachepirate/internal/analysis"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// GenFactory builds a fresh workload instance from a seed. The harness
// needs factories rather than generators because several experiments
// (thread detection, fixed-size references, overhead baselines) run
// the Target on fresh machines. A factory must be safe for concurrent
// calls — each call returns an independent generator — because the
// fan-out entry points invoke it from pool workers (Config.Workers).
type GenFactory func(seed uint64) workload.Generator

// Config parameterises a profiling run: only the knobs a caller sets.
// Where everything runs is not among them, as in the paper: a one-core
// Target runs on core 0 and a many-rank one on the cores its caller
// lists, and the Pirate gets every other core, in ascending order, with
// a thread cap of their count. The trust rule and the thread test's
// budget are the constants FetchThreshold and SlowdownThreshold.
type Config struct {
	// Machine is the system model; defaults to machine.NehalemConfig().
	Machine machine.Config
	// Sizes are the Target-available cache sizes to measure, in bytes.
	// Default: 0.5MB steps from 0.5MB up to the full L3.
	Sizes []int64
	// IntervalInstrs is the measurement interval in Target
	// instructions (Fig. 5; the paper sweeps 10M/100M/1B, Table III).
	IntervalInstrs uint64
	// Cycles is how many measurement cycles to run; results are
	// averaged across cycles.
	Cycles int
	// TargetWarmupInstrs, W, sizes every warm-up of the Target: the
	// machine.Stable chunk it runs alone in after its available cache
	// grows, the Fixed(W) thread-test settle, the Fixed(W/2) co-run
	// after each steal, MaxStealable's Fixed(W) and Fixed(W/2), and a
	// many-rank Target's Fixed(3W) floor.
	TargetWarmupInstrs uint64
	// PirateWarmPasses is how many sweeps warm newly stolen space.
	PirateWarmPasses int
	// Threads fixes the pirate thread count, skipping auto-detection,
	// when > 0; at most the Pirate's core count.
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
	// enables it. Like AttachInstr it belongs to the dynamic schedule
	// (Profile, ProfileTimeline, ProfileMulti, ProfileParallel); the
	// thread-count test and the fixed-size runs do not read either.
	NaiveSplit bool
	// StealStep is the working-set granularity of the Table II
	// MaxStealable sweep and the thread-test token (default: 1/16 of
	// the L3, i.e. 0.5MB on the 8MB Nehalem).
	StealStep int64
	// Seed seeds the Target workload.
	Seed uint64
	// Workers bounds how many independent machine runs execute
	// concurrently in the fan-outs: ProfileFixedCurve's per-size runs
	// and the thread-count test's per-count runs, one per count up to
	// the Pirate's core count, for one-core and many-rank Targets
	// alike. Each run builds a fresh machine and generators from the
	// factory, so results are bit-identical at any width; <= 0 means one
	// worker per CPU, 1 runs them serially. The per-size loop inside a
	// dynamic profile is inherently serial — it is a single Target
	// execution, the paper's whole point — and is not affected.
	Workers int
}

// FetchThreshold is the Pirate fetch ratio above which a measurement
// is untrusted: §II-A's 3%.
const FetchThreshold = 0.03

// SlowdownThreshold is the Target CPI increase the thread-count test
// allows an added pirate thread: §III-C's 1%.
const SlowdownThreshold = 0.01

// sizeStep is the step of the default size grid: every multiple of it
// up to the full L3.
const sizeStep = 512 << 10

// withDefaults returns cfg with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.Machine.Cores == 0 {
		c.Machine = machine.NehalemConfig()
	}
	if len(c.Sizes) == 0 {
		for s := int64(sizeStep); s <= c.Machine.L3.Size; s += sizeStep {
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
	if c.StealStep == 0 {
		c.StealStep = c.Machine.L3.Size / 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MaxInstrs bounds every instruction count a Config sets
// (IntervalInstrs, TargetWarmupInstrs, AttachInstr): 2^40, about a
// thousand times the paper's largest interval of 1B. Experiments run
// small multiples of these counts, and no sum of them may wrap a
// core's 64-bit instruction counter.
const MaxInstrs = 1 << 40

// Validate reports whether a profile of cfg can run: the rule every
// entry point for a one-core Target applies before it builds a machine
// (resolve), for a front door to apply to its flags before any work.
func (c Config) Validate() error {
	_, _, err := resolve(c, nil, nil)
	return err
}

// validate is the part of the rule that does not depend on where the
// Target runs, on a config whose defaults are filled in; resolve checks
// the cores.
func (c Config) validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	for _, s := range c.Sizes {
		if s <= 0 || s > c.Machine.L3.Size {
			return fmt.Errorf("core: size %d outside (0, L3=%d]", s, c.Machine.L3.Size)
		}
	}
	// Checked here, before any machine step: a negative cycle count
	// skips every measurement and averages nothing into NaN points.
	if c.Cycles < 0 {
		return fmt.Errorf("core: negative measurement cycle count %d", c.Cycles)
	}
	for _, n := range []struct {
		what   string
		instrs uint64
	}{
		{"measurement interval", c.IntervalInstrs},
		{"target warm-up", c.TargetWarmupInstrs},
		{"attach point", c.AttachInstr},
	} {
		if n.instrs > MaxInstrs {
			return fmt.Errorf("core: %s of %d instructions above the bound of %d (2^40)", n.what, n.instrs, uint64(MaxInstrs))
		}
	}
	return nil
}

// checkGrid is the rule of the entry points that measure the size grid
// (the schedule and ProfileFixedCurve) on a config whose defaults are
// filled in: an L3 under one sizeStep leaves the default grid empty,
// which would measure nothing and return an empty curve.
func (c Config) checkGrid() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("core: no size to measure: the L3 of %d bytes is under the %d KB step of the default size grid (set Sizes)", c.Machine.L3.Size, sizeStep>>10)
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
	// RankCPIs are each Target core's CPI over the run's last interval
	// (the smallest size of the last cycle), for balance diagnostics:
	// one per rank of a many-rank Target, one for a one-core Target.
	RankCPIs []float64
}

// Profile captures a full metric curve from a single Target execution
// using dynamic working-set adjustment (Fig. 5). Within each
// measurement cycle the Pirate's working set only grows (so each
// change warms with the Pirate running alone briefly); between cycles
// it collapses and the Target warms its reclaimed space. The curve is
// the schedule's intervals averaged per size across the cycles.
//
// The per-size loop shares the one live machine — a single Target
// execution is the methodology — so it is inherently serial;
// Config.Workers parallelises only the thread-count scan run when no
// count is fixed. Use ProfileFixedCurve when you want the per-size
// runs themselves fanned across cores.
func Profile(cfg Config, newGen GenFactory) (*analysis.Curve, *Report, error) {
	cfg, tgt, err := resolve(cfg, nil, eachCore(newGen))
	if err != nil {
		return nil, nil, err
	}
	return scheduleCurve(cfg, tgt, "pirate")
}

// DetermineThreads implements the §III-C safe-thread-count test: the
// Pirate steals a token 0.5MB, the Target's CPI is measured with 1, 2,
// ... threads, and the highest count whose CPI stays within
// SlowdownThreshold of the single-thread CPI wins. The chosen count and
// the reported CPI list (truncated where the scan stopped) are the same
// at any Config.Workers.
func DetermineThreads(cfg Config, newGen GenFactory) (int, []float64, error) {
	cfg, tgt, err := resolve(cfg, nil, eachCore(newGen))
	if err != nil {
		return 0, nil, err
	}
	return scanThreads(cfg, tgt)
}
