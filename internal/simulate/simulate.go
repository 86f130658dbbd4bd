// Package simulate implements the paper's reference methodology
// (§III-B): trace-driven cache simulation swept over cache sizes, used
// to validate that the cache the Pirate leaves to the Target behaves
// like a real cache of that size.
//
// Traces are captured from a workload (the Pin stand-in,
// internal/trace), then replayed through fresh machines whose L3 is
// shrunk either by removing ways (how the Pirate actually reduces the
// cache, §II-A) or by removing sets (the footnote-3 alternative). The
// replayed Target runs alone — no Pirate — so the sweep is the ground
// truth the pirate-measured curves are compared against in Fig. 4/6/7.
package simulate

import (
	"context"
	"fmt"
	"io"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/runner"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// SweepMode selects how the L3 is shrunk between sizes.
type SweepMode int

const (
	// ByWays keeps the set count constant and removes ways — the way
	// cache sharing actually reduces the cache available to one core.
	ByWays SweepMode = iota
	// BySets keeps associativity constant and removes sets (the
	// paper's footnote 3 shows the two differ only for LBM below four
	// ways).
	BySets
)

// String returns the mode name: "ways" or "sets".
func (m SweepMode) String() string {
	switch m {
	case ByWays:
		return "ways"
	case BySets:
		return "sets"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode is the inverse of SweepMode.String.
func ParseMode(name string) (SweepMode, error) {
	for m := ByWays; m <= BySets; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want ways or sets)", name)
}

// Engine selects which engine draws the curve of a sweep. It is the
// one engine switch: every curve, exact or estimated, is a
// SweepStreamContext call with Config.Engine set.
type Engine int

const (
	// EngineFused (the default) replays the trace through one hierarchy
	// replica per size, way- or set-shrunk, advanced together through a
	// shared decoded stream (see fused.go).
	EngineFused Engine = iota
	// EnginePerSize forces one full machine replay per size — the
	// historical path, kept only as the oracle the fused engine is
	// checked against (conformance.CheckSweepEquivalence); nothing
	// selects it automatically. Bit-identical to EngineFused.
	EnginePerSize
	// EngineMattson is the exact single-pass curve of the bare L3: one
	// replay of the line stream through per-set recency stacks yields,
	// by stack inclusion, the hit/miss curve of every way count at once
	// (see mattson.go). LRU policy and ByWays mode only; miss and fetch
	// ratios only (no private levels, no prefetcher, no timing).
	EngineMattson
	// EngineAnalytic predicts the curve from one SHARDS-sampled
	// profiling pass (internal/analytic) instead of replaying: O(sample)
	// time for any number of sizes, O(1) memory on streamed traces.
	// Unlike the other engines its curve is an estimate — exact only at
	// sample rate 1.0 on fully-associative geometry; the error bounds
	// are pinned by conformance.CheckAnalyticEquivalence. Miss and
	// fetch ratios only (no timing model).
	EngineAnalytic
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case EngineFused:
		return "fused"
	case EnginePerSize:
		return "persize"
	case EngineMattson:
		return "mattson"
	case EngineAnalytic:
		return "analytic"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine is the inverse of Engine.String.
func ParseEngine(name string) (Engine, error) {
	for e := EngineFused; e <= EngineAnalytic; e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want fused, persize, mattson or analytic)", name)
}

// Config parameterises a reference sweep.
type Config struct {
	// Machine is the template system; its L3 geometry is rescaled per
	// size. The replayed Target runs on core 0 of a 1-core machine.
	Machine machine.Config
	// Sizes are the cache sizes to simulate.
	Sizes []int64
	// Mode selects ways- or sets-based shrinking (default ByWays).
	Mode SweepMode
	// Engine selects the engine (default EngineFused). The simulating
	// engines (fused, persize) produce bit-identical curves — the choice
	// only trades speed; EngineMattson models the bare L3 alone, and
	// EngineAnalytic trades accuracy too (sampled estimate, see
	// internal/analytic).
	Engine Engine
	// SampleRate is the EngineAnalytic SHARDS sampling rate in (0, 1];
	// 0 with SampleSize 0 means 1.0 (exact). Ignored by other engines.
	SampleRate float64
	// SampleSize, when > 0, runs EngineAnalytic in SHARDS fixed-size
	// mode: at most this many lines tracked, rate adapting downward.
	SampleSize int
	// WarmPasses is how many full trace replays warm the cache before
	// the measured replay. The zero value means the default, 1; a
	// negative value measures the first replay cold, with no warm-up.
	WarmPasses int
	// Workers bounds the sweep's parallelism. The fused engine replays
	// the largest size on its own, then the others in consecutive
	// replica groups of bounded line state, each over its own source,
	// and Workers is how many groups replay at once (1: one after
	// another on the calling goroutine; a group holds at most
	// ceil(others/Workers) replicas, so a small sweep still splits —
	// DESIGN.md §7). On the per-size engine each size gets its own
	// fresh machine and trace replayer. Results are bit-identical at
	// any width either way; <= 0 means one worker per CPU.
	Workers int
}

// traceMLP is the memory-level parallelism every replay gives the
// trace (traces carry none; it does not affect fetch ratios, only CPI).
const traceMLP = 2

func (c Config) withDefaults() Config {
	c.Machine = c.replayMachine()
	if len(c.Sizes) == 0 {
		c.Sizes = waySizes(nil, c.Machine.L3)
	}
	if c.WarmPasses < 0 {
		c.WarmPasses = 0
	} else if c.WarmPasses == 0 {
		c.WarmPasses = 1
	}
	return c
}

// replayMachine is the template the sweep shrinks: Machine, or the
// Nehalem machine when unset, with the one core the trace replays on.
func (c Config) replayMachine() machine.Config {
	mcfg := c.Machine
	if mcfg.Cores == 0 {
		mcfg = machine.NehalemConfig()
	}
	mcfg.Cores = 1
	return mcfg
}

// waySizes appends the default size grid to dst: one size per L3 way.
func waySizes(dst []int64, l3 cache.Config) []int64 {
	step := l3.Size / int64(l3.Ways)
	for s := step; s <= l3.Size; s += step {
		dst = append(dst, s)
	}
	return dst
}

// shrink returns the machine config with an L3 of the given size, one
// that Config.Validate has accepted.
func shrink(mcfg machine.Config, mode SweepMode, size int64) machine.Config {
	if mode == BySets {
		return machine.WithL3Size(mcfg, size)
	}
	return machine.WithL3Ways(mcfg, int(size/(mcfg.L3.Size/int64(mcfg.L3.Ways))))
}

// shrunkMachines returns the machine config of every size of a
// validated cfg.
func shrunkMachines(cfg Config) []machine.Config {
	mcfgs := make([]machine.Config, len(cfg.Sizes))
	for i, size := range cfg.Sizes {
		mcfgs[i] = shrink(cfg.Machine, cfg.Mode, size)
	}
	return mcfgs
}

// SweepStreamContext draws the curve of the trace open yields with
// the engine cfg.Engine names, at every configured size: the one door
// every curve goes through. The simulating engines warm the hierarchy
// with WarmPasses replays per size, then measure one replay through
// the counters; fused and per-size curves are bit-identical at any
// worker count, with points in size order.
//
// It takes a source factory because every consumer replays the trace
// independently: the per-size engine opens one source per size and the
// fused engine one per replica group, Config.Workers at a time. A
// file-backed sweep passes
//
//	func() (trace.BlockSource, error) { return trace.OpenFile(path, opts) }
//
// and multi-GB traces stream through in O(block) memory. Sources that
// implement io.Closer are closed when their consumer finishes. Curves
// are bit-identical to the same records held in memory
// (conformance.CheckStreamEquivalence).
//
// Once ctx is done, in-flight replays stop at the next cancellation
// point (machine.RunInstructionsCtx per size, a per-chunk poll when
// fused, a per-block poll for Mattson and analytic) and the sweep
// returns ctx's error. The context is only read, never woven into
// simulated state, so a live context gives bit-identical curves.
func SweepStreamContext(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch cfg.Engine {
	case EngineFused:
		curve, _, err := sweepFusedStream(ctx, cfg, open, true)
		return curve, err
	case EnginePerSize:
		return sweepPerSizeStream(ctx, cfg, open)
	case EngineMattson:
		return mattsonStream(ctx, cfg, open)
	case EngineAnalytic:
		est, err := AnalyticEstimate(ctx, cfg, open)
		if err != nil {
			return nil, err
		}
		return est.Curve(), nil
	}
	panic("unreachable: Validate accepts no other engine")
}

// Sweep is SweepStreamContext over an in-memory trace, with no
// deadline.
func Sweep(cfg Config, tr *trace.Trace) (*analysis.Curve, error) {
	if tr.Len() == 0 {
		return nil, fmt.Errorf("simulate: empty trace")
	}
	return SweepStream(cfg, func() (trace.BlockSource, error) {
		return trace.NewReplayer(tr, false), nil
	})
}

// SweepStream is SweepStreamContext with no deadline. Kept for the
// callers that have no context: the benchmark harness under bench/.
func SweepStream(cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	return SweepStreamContext(context.Background(), cfg, open)
}

// sweepPerSizeStream is the EnginePerSize body: one fresh machine and
// one full replay per size, runner.Map'ed over cfg.Workers.
func sweepPerSizeStream(ctx context.Context, cfg Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	mcfgs := shrunkMachines(cfg)
	records, passInstrs, err := sourceStats(open)
	if err != nil {
		return nil, err
	}
	if records == 0 {
		return nil, fmt.Errorf("simulate: empty trace")
	}
	points, err := runner.Map(ctx, runner.Pool{Workers: cfg.Workers}, len(cfg.Sizes),
		func(ctx context.Context, i int) (analysis.Point, error) {
			return sweepPoint(ctx, cfg, open, mcfgs[i], passInstrs)
		})
	if err != nil {
		return nil, err
	}
	curve := &analysis.Curve{Name: "reference", Points: points}
	curve.Sort()
	return curve, nil
}

// closeSource closes src when it owns resources (trace.Reader does,
// trace.Replayer does not), folding the close error into the caller's
// named return so a failed close is never silently dropped.
func closeSource(src trace.BlockSource, err *error) {
	c, ok := src.(io.Closer)
	if !ok {
		return
	}
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// sourceStats returns a source's record and instruction totals,
// preferring the header fast path (v2 files and in-memory replayers
// know both) and falling back to one counting pass.
func sourceStats(open func() (trace.BlockSource, error)) (records int64, passInstrs uint64, err error) {
	src, err := open()
	if err != nil {
		return 0, 0, err
	}
	defer closeSource(src, &err)
	if r, n := src.NumRecords(), src.NumInstructions(); r >= 0 && n >= 0 {
		return r, uint64(n), nil
	}
	var n uint64
	for {
		blk, err := src.NextBlock()
		if err != nil {
			return 0, 0, err
		}
		if len(blk) == 0 {
			break
		}
		records += int64(len(blk))
		for i := range blk {
			n += uint64(blk[i].NInstr) + 1
		}
	}
	return records, n, nil
}

// sweepPoint simulates one shrunk machine, fresh, over its own
// independently opened source; concurrent sweep points share nothing.
// The context cancels mid-replay via machine.RunInstructionsCtx — the
// fix for slow jobs outliving their clients (the curve server's
// per-job deadline reaches the innermost step loop through here).
func sweepPoint(ctx context.Context, cfg Config, open func() (trace.BlockSource, error), mcfg machine.Config, passInstrs uint64) (pt analysis.Point, err error) {
	m, err := machine.New(mcfg)
	if err != nil {
		return analysis.Point{}, fmt.Errorf("simulate: size %d: %w", mcfg.L3.Size, err)
	}
	src, err := open()
	if err != nil {
		return analysis.Point{}, err
	}
	defer closeSource(src, &err)
	if err := m.AttachBlocks(0, "trace", src, traceMLP); err != nil {
		return analysis.Point{}, err
	}
	for w := 0; w < cfg.WarmPasses; w++ {
		if err := m.RunInstructionsCtx(ctx, 0, passInstrs); err != nil {
			return analysis.Point{}, err
		}
	}
	iv, err := counters.Interval(m, func() error { return m.RunInstructionsCtx(ctx, 0, passInstrs) })
	if err != nil {
		return analysis.Point{}, err
	}
	return curvePoint(mcfg.L3.Size, iv[0], mcfg.CPU.FreqHz), nil
}

// curvePoint is the one assembly of a sweep's curve point: the
// measured-pass counter interval s of the size's machine, at core clock
// freqHz. Both replay engines call it.
func curvePoint(size int64, s counters.Sample, freqHz float64) analysis.Point {
	return analysis.Point{
		CacheBytes:   size,
		CPI:          s.CPI(),
		BandwidthGBs: s.BandwidthGBs(freqHz),
		FetchRatio:   s.FetchRatio(),
		MissRatio:    s.MissRatio(),
		Trusted:      true,
		Samples:      1,
	}
}

// CaptureTrace records n references from a fresh instance of the
// workload, optionally skipping the first skip records (the Gprof
// "start tracing at the hot code" step: the skipped prefix stands in
// for initialisation code).
func CaptureTrace(newGen func(seed uint64) workload.Generator, seed uint64, skip, n int) *trace.Trace {
	src := workload.TraceSource{Gen: newGen(seed)}
	for i := 0; i < skip; i++ {
		src.NextRecord()
	}
	return trace.Capture(src, n)
}

// Calibrate shifts the curve's fetch ratios by a constant so its
// largest-cache point matches baselineFetchRatio — the paper's §III-B1
// offset correction for cold-start effects and prefetchers that could
// not be disabled. The curve is modified in place and returned.
//
// Shifted ratios are clamped into [0, 1]: a negative offset can push
// low-fetch points below zero and a positive offset can push
// high-fetch points above one, and neither is a physically meaningful
// fetch ratio (fetches per memory access).
func Calibrate(curve *analysis.Curve, baselineFetchRatio float64) *analysis.Curve {
	if len(curve.Points) == 0 {
		return curve
	}
	last := curve.Points[len(curve.Points)-1]
	offset := baselineFetchRatio - last.FetchRatio
	for i := range curve.Points {
		curve.Points[i].FetchRatio += offset
		if curve.Points[i].FetchRatio < 0 {
			curve.Points[i].FetchRatio = 0
		}
		if curve.Points[i].FetchRatio > 1 {
			curve.Points[i].FetchRatio = 1
		}
	}
	return curve
}
