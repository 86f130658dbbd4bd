package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// batch describes a workload whose operation is one library call that
// computes curves. Every op of a run computes the same curves, so the first
// op's curves are the reference for all later ones.
type batch struct {
	// workUnit names what work counts (work_per_s = work / median op time).
	workUnit string
	// prepare builds the op's inputs. With the warm-up op it is the
	// workload's set-up, which a run repeats to report a median setup_s.
	prepare func(r *run) error
	// op runs one operation, under c when the op is traced, and returns its
	// curves and the work it did.
	op func(r *run, c spanCtx) (curves []*analysis.Curve, work float64, err error)
	// verify runs the workload's oracles against the first op's curves. It
	// runs after the timed phase and after peak RSS is read, so the
	// in-memory reference engines it calls do not count as the workload's
	// memory.
	verify func(r *run, first []*analysis.Curve) error
	// stages runs the stand-alone layer measurements of a traced run and
	// derives the per-layer metrics from them and from the op spans.
	stages func(r *run, ops opSpans) error
}

const (
	// setupReps is how many times an untraced run sets up; setup_s is the
	// median. A traced run reports no setup_s and sets up once.
	setupReps = 3
	// minOps is the fewest operations a timed phase runs however slow the
	// host; beyond that the time-box decides.
	minOps = 3
)

// opSpans is what a traced run learned from its own ops.
type opSpans struct {
	perOp  time.Duration         // median traced op duration
	totals map[string]spanTotals // over the traced ops
}

// share returns the named spans' part of the traced ops' total time.
func (o opSpans) share(name string) float64 {
	return float64(o.totals[name].Total) / float64(o.totals["op"].Total)
}

// runBatch is the life of a batch workload: set-up (repeated), time-boxed
// ops checked against the first, peak RSS, oracles, and on a traced run the
// stand-alone stages.
func (r *run) runBatch(b batch, root string, updateGolden bool) error {
	r.workUnit = b.workUnit
	reps := setupReps
	if r.traced {
		reps = 1
	}
	var first []*analysis.Curve
	var setups []float64
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory() // as before every op: see one below
		t0 := time.Now()
		if err := b.prepare(r); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		curves, _, err := b.op(r, spanCtx{})
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		first = curves
	}
	r.e2e["setup_s"] = median(setups)

	// one runs and checks a single op, returning its duration and work. Each
	// op starts from a collected heap whose free pages are back with the OS,
	// so the high-water mark is one op's footprint. After a bare runtime.GC()
	// about one run in ten read 10-25% higher (where the runtime places an
	// op's large arrays among the previous op's free spans is a matter of
	// timing), and a run of more ops met that more often.
	one := func(c spanCtx) (float64, float64, bool) {
		debug.FreeOSMemory()
		t0 := time.Now()
		curves, work, err := b.op(r, c)
		dt := time.Since(t0).Seconds()
		r.attempted++
		if err == nil {
			err = sameCurves(first, curves)
		}
		if err != nil {
			r.opFailed("op %d: %v", r.attempted, err)
			return 0, 0, false
		}
		return dt, work, true
	}

	box := time.Duration(r.seconds * r.scale * float64(time.Second))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var plain, traced []float64
	var work float64
	if !r.traced {
		deadline := time.Now().Add(box)
		for r.attempted < minOps || time.Now().Before(deadline) {
			if dt, w, ok := one(spanCtx{}); ok {
				plain, work = append(plain, dt), w
			}
		}
	} else {
		// Alternate untraced and traced ops: the per-layer numbers come
		// from the traced ones, and the pair gives the tracing overhead
		// from one invocation.
		deadline := time.Now().Add(box / 2)
		for op := 0; op < minOps || time.Now().Before(deadline); op++ {
			if dt, w, ok := one(spanCtx{}); ok {
				plain, work = append(plain, dt), w
			}
			c, end := r.tr.root("op", op)
			dt, _, ok := one(c)
			end()
			if ok {
				traced = append(traced, dt)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	if len(plain) == 0 {
		return fmt.Errorf("no operation succeeded: %v", r.problems)
	}
	r.samples = len(plain)

	op := median(plain)
	r.e2e["work_per_s"] = work / op
	r.e2e["op_ms_p50"] = op * 1e3
	r.e2e["compute_ms_p50"] = op * 1e3 // every op of a batch workload computes its curves from scratch
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss

	if err := b.verify(r, first); err != nil {
		return fmt.Errorf("oracles: %w", err)
	}
	if err := r.checkGolden(root, first, updateGolden); err != nil {
		return err
	}
	r.exact["fail_ratio"] = float64(r.failed) / float64(r.attempted)

	if !r.traced {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced operation succeeded: %v", r.problems)
	}
	r.layer["tracing_overhead"] = median(traced) / op
	r.layer["go.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(r.attempted) / (1 << 20)
	r.layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	r.tr.mu.Lock()
	tot := totals(r.tr.spans)
	r.tr.mu.Unlock()
	return b.stages(r, opSpans{
		perOp:  time.Duration(median(traced) * float64(time.Second)),
		totals: tot,
	})
}

// nehalem is the machine every workload models: the paper's 8 MB, 16-way
// Nehalem L3 with hardware prefetching off, as in its reference comparison.
func nehalem() machine.Config { return machine.NehalemConfigNoPrefetch() }

// captureFile streams n records of a suite workload into a v2 trace file
// without holding them, so set-up stays O(block) like the replay it feeds and
// peak_rss_mb can show a reader that stops streaming.
func captureFile(path, wl string, seed uint64, n int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w, err := trace.NewWriter(f, trace.WriterOptions{})
	if err != nil {
		return err
	}
	src := workload.TraceSource{Gen: workload.MustByName(wl).New(seed)}
	for i := 0; i < n; i++ {
		if err := w.Append(src.NextRecord()); err != nil {
			if cerr := w.Close(); cerr != nil {
				err = fmt.Errorf("%w (also closing the encoder: %v)", err, cerr)
			}
			return err
		}
	}
	return w.Close()
}

// readTraceFile loads a trace file into memory for the in-memory oracles and
// the stand-alone stages.
func readTraceFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// replayRecords and lruRecords are the trace lengths at full scale.
// 400k omnetpp records touch about half the modelled L3, so the curve has a
// knee inside the swept range; 4M mcf records make the LRU fast paths run
// long enough to time.
const (
	replayRecords = 400_000
	lruRecords    = 4_000_000
)

// replayBatch is replay_exact (fused engine, ByWays) or replay_sets
// (per-size engine, BySets) over the same omnetpp trace file.
func replayBatch(sets bool) batch {
	cfg := simulate.Config{Machine: nehalem(), Engine: simulate.EngineFused, Mode: simulate.ByWays, Workers: 1}
	if sets {
		cfg = simulate.Config{Machine: nehalem(), Mode: simulate.BySets, Workers: 1}
	}
	path := func(r *run) string { return filepath.Join(r.dir, "omnetpp.trace") }
	records := func(r *run) int { return r.scaled(replayRecords, 4000) }
	b := batch{
		workUnit: "records",
		prepare: func(r *run) error {
			return captureFile(path(r), "omnetpp", r.seed, records(r))
		},
		op: func(r *run, c spanCtx) ([]*analysis.Curve, float64, error) {
			c, end := c.start("simulate.SweepStream")
			curve, err := simulate.SweepStream(cfg, opener(path(r), c))
			end()
			if err != nil {
				return nil, 0, err
			}
			return []*analysis.Curve{curve}, float64(records(r)), nil
		},
	}
	if sets {
		// The streamed per-size sweep must equal the in-memory one.
		b.verify = func(r *run, first []*analysis.Curve) error {
			tr, err := readTraceFile(path(r))
			if err != nil {
				return err
			}
			want, err := simulate.Sweep(cfg, tr)
			if err != nil {
				return err
			}
			if err := sameCurves([]*analysis.Curve{want}, first); err != nil {
				r.oracleFail("streamed BySets sweep differs from in-memory simulate.Sweep: %v", err)
			}
			return nil
		}
		b.stages = setsStages(cfg, path)
		return b
	}
	// The fused engine must equal the per-size engine it replaced.
	b.verify = func(r *run, first []*analysis.Curve) error {
		ref := cfg
		ref.Engine = simulate.EnginePerSize
		want, err := simulate.SweepStream(ref, opener(path(r), spanCtx{}))
		if err != nil {
			return err
		}
		if err := sameCurves([]*analysis.Curve{want}, first); err != nil {
			r.oracleFail("fused curve differs from EnginePerSize ByWays: %v", err)
		}
		return nil
	}
	b.stages = fusedStages(cfg, path)
	return b
}

// estimateRate is the SHARDS sampling rate of lru_fast's estimate.
//
// maxEstimateErrPP is the accuracy the estimate must keep at full scale, in
// percentage points of miss ratio at the worst of the 16 sizes. It is the
// tolerance conformance.CheckAnalyticEquivalence gives the Poisson
// set-associativity correction, because that — not sampling — sets the worst
// point: at one way the model is 7.8 pp off even at rate 1.0, and R=0.01 adds
// about 1.5 pp. maxPirateErrPP bounds the Pirate's mean fetch-ratio error
// against the reference sweep the same way.
const (
	estimateRate     = 0.01
	maxEstimateErrPP = 10.0
	maxPirateErrPP   = 5.0
)

// lruBatch is lru_fast: the exact Mattson LRU curve, then the sampled
// analytic estimate, streamed from a long mcf trace file.
func lruBatch() batch {
	exact := simulate.Config{Machine: machine.WithL3Policy(nehalem(), cache.LRU), Workers: 1}
	estimate := exact
	estimate.SampleRate = estimateRate
	path := func(r *run) string { return filepath.Join(r.dir, "mcf.trace") }
	records := func(r *run) int { return r.scaled(lruRecords, 40000) }
	return batch{
		workUnit: "records",
		prepare: func(r *run) error {
			return captureFile(path(r), "mcf", r.seed, records(r))
		},
		op: func(r *run, c spanCtx) ([]*analysis.Curve, float64, error) {
			mc, end := c.start("simulate.MattsonLRUCurveStream")
			m, err := simulate.MattsonLRUCurveStream(exact, opener(path(r), mc))
			end()
			if err != nil {
				return nil, 0, err
			}
			ac, end := c.start("simulate.AnalyticCurveStream")
			a, err := simulate.AnalyticCurveStream(estimate, opener(path(r), ac))
			end()
			if err != nil {
				return nil, 0, err
			}
			// Two curves per op, each over every record.
			return []*analysis.Curve{m, a}, 2 * float64(records(r)), nil
		},
		verify: func(r *run, first []*analysis.Curve) error {
			tr, err := readTraceFile(path(r))
			if err != nil {
				return err
			}
			want, err := simulate.MattsonLRUCurve(exact, tr)
			if err != nil {
				return err
			}
			if err := sameCurves([]*analysis.Curve{want}, first[:1]); err != nil {
				r.oracleFail("streamed Mattson curve differs from in-memory simulate.MattsonLRUCurve: %v", err)
			}
			gap, err := maxMissRatioGap(first[0], first[1])
			if err != nil {
				return err
			}
			r.exact["estimate_err_pp"] = gap * 100
			if r.scale == 1 && gap*100 > maxEstimateErrPP {
				r.oracleFail("R=%g estimate is %.2f pp from the exact curve, limit %g pp", estimateRate, gap*100, maxEstimateErrPP)
			}
			return nil
		},
		stages: lruStages(exact, estimate, path),
	}
}

// maxMissRatioGap is the largest absolute miss-ratio difference between two
// curves over the same sizes.
func maxMissRatioGap(a, b *analysis.Curve) (float64, error) {
	if len(a.Points) != len(b.Points) {
		return 0, fmt.Errorf("curves have %d and %d points", len(a.Points), len(b.Points))
	}
	var gap float64
	for i := range a.Points {
		if a.Points[i].CacheBytes != b.Points[i].CacheBytes {
			return 0, fmt.Errorf("point %d: sizes %d and %d", i, a.Points[i].CacheBytes, b.Points[i].CacheBytes)
		}
		gap = math.Max(gap, math.Abs(a.Points[i].MissRatio-b.Points[i].MissRatio))
	}
	return gap, nil
}

// pirateConfig is the paper's method as pirate_profile runs it: the Target
// and two pirate threads on the four-core machine, one measurement cycle.
func pirateConfig(r *run) core.Config {
	cfg := core.Config{Machine: nehalem(), Threads: 2, Cycles: 1, Seed: r.seed, Workers: 1}
	if r.scale != 1 {
		// The smoke test's Pirate: short intervals, and four sizes with one
		// warming sweep each, because warming the stolen megabytes costs
		// the same however short the intervals are.
		cfg.IntervalInstrs = uint64(r.scaled(250_000, 2500))
		cfg.TargetWarmupInstrs = uint64(r.scaled(150_000, 1500))
		cfg.PirateWarmPasses = 1
		for mb := int64(2); mb <= 8; mb += 2 {
			cfg.Sizes = append(cfg.Sizes, mb<<20)
		}
	}
	return cfg
}

// pirateBatch is pirate_profile: core.Profile on live generators.
func pirateBatch() batch {
	newGen := workload.MustByName("omnetpp").New
	return batch{
		workUnit: "simulated Target instructions",
		prepare:  func(*run) error { return nil }, // no inputs: the op builds its machine and generators
		op: func(r *run, c spanCtx) ([]*analysis.Curve, float64, error) {
			_, end := c.start("core.Profile")
			curve, rep, err := core.Profile(pirateConfig(r), newGen)
			end()
			if err != nil {
				return nil, 0, err
			}
			return []*analysis.Curve{curve}, float64(rep.TargetInstructions), nil
		},
		// The Pirate's curve is compared with the reference methodology of
		// the paper's §III-B: a trace of the same workload swept through a
		// constant-associativity Nehalem-policy simulator, offset-calibrated
		// at the full-cache point.
		verify: func(r *run, first []*analysis.Curve) error {
			pirate := first[0]
			tr := simulate.CaptureTrace(newGen, r.seed, 0, r.scaled(replayRecords, 4000))
			ref, err := simulate.Sweep(simulate.Config{
				Machine: nehalem(), Mode: simulate.BySets, WarmPasses: 2, Workers: 1,
			}, tr)
			if err != nil {
				return err
			}
			simulate.Calibrate(ref, pirate.Points[len(pirate.Points)-1].FetchRatio)
			sum, err := analysis.FetchRatioErrors(pirate, ref)
			if err != nil {
				if r.scale != 1 {
					return nil // a 1/100-scale interval may leave no trusted point
				}
				return err
			}
			r.exact["pirate_fetch_err_pp"] = sum.AbsMean * 100
			if r.scale == 1 && sum.AbsMean*100 > maxPirateErrPP {
				r.oracleFail("pirate fetch ratio is %.2f pp (mean) from the reference sweep, limit %g pp", sum.AbsMean*100, maxPirateErrPP)
			}
			return nil
		},
		stages: pirateStages(newGen),
	}
}
