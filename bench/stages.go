package main

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"time"

	"cachepirate/internal/analytic"
	"cachepirate/internal/cache"
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/simulate"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// This file holds the stand-alone layer measurements of a traced run: each
// drives one layer's exported functions directly, over the same records the
// workload's op consumed, so that the layer's time can be set against the op
// span it is part of. Stage spans are roots with op -1.

// replayPasses is how many times a simulating sweep walks the trace per
// size: simulate's default of one warm pass, then the measured pass.
const replayPasses = 2

// outcomeSink keeps the stand-alone access loops from being optimised away.
var outcomeSink cache.Outcome

func nsOf(d time.Duration) float64 { return float64(d) }

// stage times f as a root span.
func (r *run) stage(name string, f func() error) (time.Duration, error) {
	_, end := r.tr.root(name, -1)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	end()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// genEncodeStages measures the two set-up layers — the workload generator
// and the v2 encoder — and returns the captured records, which equal the
// workload's trace file (same generator, seed and length).
func (r *run) genEncodeStages(wl string, n int) (*trace.Trace, error) {
	var tr *trace.Trace
	d, err := r.stage("simulate.CaptureTrace", func() error {
		tr = simulate.CaptureTrace(workload.MustByName(wl).New, r.seed, 0, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.layer["workload.gen_ns_per_record"] = nsOf(d) / float64(n)
	var cw countWriter
	d, err = r.stage("trace.Trace.WriteV2", func() error { return tr.WriteV2(&cw) })
	if err != nil {
		return nil, err
	}
	r.layer["trace.encode_ns_per_record"] = nsOf(d) / float64(n)
	r.layer["trace.bytes_per_record"] = float64(cw.n) / float64(n)
	return tr, nil
}

// decodeMetrics reports the in-situ decode spans of the traced ops.
func (r *run) decodeMetrics(ops opSpans) (share float64) {
	dec := ops.totals["trace.NextBlock"]
	r.layer["trace.decode_ns_per_record"] = nsOf(dec.Total) / float64(dec.N)
	share = ops.share("trace.NextBlock")
	r.layer["trace.decode_share"] = share
	return share
}

// residual stores 1 - the given shares under name. The shares and the
// residual sum to 1 by construction; a negative residual means a stand-alone
// stage ran slower than the op that contains it, which is a measurement
// fault. It is printed as measured and flagged, never clamped.
func (r *run) residual(name string, shares ...float64) {
	res := 1.0
	for _, s := range shares {
		res -= s
	}
	r.layer[name] = res
	if res < 0 {
		r.notes[name] = "measurement fault: stand-alone stages exceed the op span"
		fmt.Fprintf(os.Stderr, "bench: %s: %s = %.4f: measurement fault (stand-alone stages exceed the op span)\n", r.workload, name, res)
	}
}

// speedup runs a and b alternately and returns median(a) / median(b), so
// both sides see the same machine state.
func speedup(rounds int, a, b func() error) (float64, error) {
	var ta, tb []float64
	for i := 0; i < rounds; i++ {
		for _, side := range []struct {
			f func() error
			t *[]float64
		}{{a, &ta}, {b, &tb}} {
			t0 := time.Now()
			if err := side.f(); err != nil {
				return 0, err
			}
			*side.t = append(*side.t, time.Since(t0).Seconds())
		}
	}
	return median(ta) / median(tb), nil
}

func hierarchyConfig(m machine.Config) cache.HierarchyConfig {
	return cache.HierarchyConfig{Cores: 1, L1: m.L1, L2: m.L2, L3: m.L3, NewPrefetcher: m.NewPrefetcher}
}

// fusedStages explains replay_exact: decode, the replica kernel, and what is
// left (the timing recurrence and curve assembly).
func fusedStages(cfg simulate.Config, path func(*run) string) func(*run, opSpans) error {
	return func(r *run, ops opSpans) error {
		tr, err := r.genEncodeStages("omnetpp", r.scaled(replayRecords, 4000))
		if err != nil {
			return err
		}
		n := float64(tr.Len())
		ways := make([]int, cfg.Machine.L3.Ways)
		for i := range ways {
			ways[i] = i + 1
		}
		// The engine's loop order: a block of records through every
		// replica, then the next block.
		const block = 256
		kernel := func() (time.Duration, error) {
			fh, err := cache.NewFusedHierarchy(hierarchyConfig(cfg.Machine), ways)
			if err != nil {
				return 0, err
			}
			return r.stage("cache.FusedHierarchy.Access", func() error {
				for pass := 0; pass < replayPasses; pass++ {
					for lo := 0; lo < len(tr.Records); lo += block {
						hi := lo + block
						if hi > len(tr.Records) {
							hi = len(tr.Records)
						}
						for k := range ways {
							for _, rec := range tr.Records[lo:hi] {
								outcomeSink = fh.Access(k, cache.Addr(rec.Addr), rec.Write)
							}
						}
					}
				}
				return nil
			})
		}
		sweep := func(c simulate.Config) (float64, error) {
			t0 := time.Now()
			_, err := simulate.SweepStream(c, opener(path(r), spanCtx{}))
			return nsOf(time.Since(t0)), err
		}
		wide := cfg
		wide.Workers = 2
		// The kernel's speed follows the host's shared cache from minute to
		// minute, as the op's does, so each round sets a stand-alone kernel
		// pass against the sweep that runs right after it, and the share is
		// the median of the rounds' ratios. The same rounds give the
		// two-worker speed-up.
		const rounds = 3
		var kernelNs, shares, j1, j2 []float64
		for i := 0; i < rounds; i++ {
			k, err := kernel()
			if err != nil {
				return err
			}
			one, err := sweep(cfg)
			if err != nil {
				return err
			}
			two, err := sweep(wide)
			if err != nil {
				return err
			}
			kernelNs, shares = append(kernelNs, nsOf(k)), append(shares, nsOf(k)/one)
			j1, j2 = append(j1, one), append(j2, two)
		}
		r.layer["cache.fused_access_ns"] = median(kernelNs) / (replayPasses * n * float64(len(ways)))
		r.layer["simulate.fused_ns_per_record"] = nsOf(ops.perOp) / n
		kernelShare := median(shares)
		r.layer["cache.fused_share"] = kernelShare
		r.residual("simulate.fused_residual_share", r.decodeMetrics(ops), kernelShare)
		sp := median(j1) / median(j2)
		r.layer["simulate.fused_j2_speedup"] = sp
		r.unverifiedBelow4("simulate.fused_j2_speedup")
		return nil
	}
}

// setsStages explains replay_sets: decode, one machine per size stepping the
// same records, and what is left (machine construction, counters, curve
// assembly). The private-plus-shared hierarchy is timed alone as well.
func setsStages(cfg simulate.Config, path func(*run) string) func(*run, opSpans) error {
	return func(r *run, ops opSpans) error {
		tr, err := readTraceFile(path(r))
		if err != nil {
			return err
		}
		n := float64(tr.Len())
		h, err := cache.NewHierarchy(hierarchyConfig(cfg.Machine))
		if err != nil {
			return err
		}
		d, err := r.stage("cache.Hierarchy.Access", func() error {
			for pass := 0; pass < replayPasses; pass++ {
				for _, rec := range tr.Records {
					outcomeSink = h.Access(0, cache.Addr(rec.Addr), rec.Write)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.layer["cache.hier_access_ns"] = nsOf(d) / (replayPasses * n)

		// The op's own work without its decode: every swept size on a fresh
		// one-core machine fed from memory. Construction is outside the
		// span, so it lands in the residual.
		mcfg := cfg.Machine
		mcfg.Cores = 1
		sizes := mcfg.L3.Ways
		step := mcfg.L3.Size / int64(sizes)
		var stepping time.Duration
		for i := 1; i <= sizes; i++ {
			m, err := machine.New(machine.WithL3Size(mcfg, int64(i)*step))
			if err != nil {
				return err
			}
			if err := m.AttachBlocks(0, "trace", trace.NewReplayer(tr, false), 2); err != nil {
				return err
			}
			d, err := r.stage("machine.Machine.RunInstructions", func() error {
				return m.RunInstructions(0, replayPasses*tr.Instructions())
			})
			if err != nil {
				return err
			}
			stepping += d
		}
		r.layer["machine.step_ns"] = nsOf(stepping) / (replayPasses * n * float64(sizes))
		r.layer["simulate.sets_ns_per_record"] = nsOf(ops.perOp) / n
		stepShare := nsOf(stepping) / nsOf(ops.perOp)
		r.layer["machine.step_share"] = stepShare
		r.residual("simulate.sets_residual_share", r.decodeMetrics(ops), stepShare)
		return nil
	}
}

// readAll drains a block source and closes it.
func readAll(src trace.BlockSource, err error) error {
	if err != nil {
		return err
	}
	for {
		blk, err := src.NextBlock()
		if err != nil || len(blk) == 0 {
			if c, ok := src.(io.Closer); ok {
				if cerr := c.Close(); err == nil {
					err = cerr
				}
			}
			return err
		}
	}
}

// lruStages explains lru_fast: decode, the two stack-distance profilers fed
// from memory, the per-curve model evaluation, and what is left.
func lruStages(exact, estimate simulate.Config, path func(*run) string) func(*run, opSpans) error {
	return func(r *run, ops opSpans) error {
		tr, err := r.genEncodeStages("mcf", r.scaled(lruRecords, 40000))
		if err != nil {
			return err
		}
		n := float64(tr.Len())
		perCall := func(name string) float64 {
			t := ops.totals[name]
			return nsOf(t.Total) / float64(t.Spans) / n
		}
		r.layer["simulate.mattson_ns_per_record"] = perCall("simulate.MattsonLRUCurveStream")
		r.layer["simulate.analytic_ns_per_record"] = perCall("simulate.AnalyticCurveStream")

		l3 := exact.Machine.L3
		sets, ways := int(l3.Sets()), l3.Ways
		lineShift := uint(bits.TrailingZeros64(uint64(l3.LineSize)))
		feed := func(f func([]trace.Record)) func() error {
			return func() error {
				for lo := 0; lo < len(tr.Records); lo += trace.DefaultFrameRecords {
					hi := lo + trace.DefaultFrameRecords
					if hi > len(tr.Records) {
						hi = len(tr.Records)
					}
					f(tr.Records[lo:hi])
				}
				return nil
			}
		}
		sa, err := stackdist.NewSetAssocProfiler(sets, ways, lineShift)
		if err != nil {
			return err
		}
		exactFeed, err := r.stage("stackdist.SetAssocProfiler.Feed", feed(sa.Feed))
		if err != nil {
			return err
		}
		r.layer["stackdist.setassoc_feed_ns_per_record"] = nsOf(exactFeed) / n
		// The profiler configuration simulate derives for this sweep: the
		// histogram tracks 8x the largest size, hash seed 1.
		sp, err := stackdist.NewSampledProfiler(stackdist.SampledConfig{
			Rate: estimate.SampleRate, Seed: 1,
			MaxDistance: int(l3.Size/l3.LineSize) * 8, LineShift: lineShift,
		})
		if err != nil {
			return err
		}
		sampledFeed, err := r.stage("stackdist.SampledProfiler.Feed", feed(sp.Feed))
		if err != nil {
			return err
		}
		r.layer["stackdist.sampled_feed_ns_per_record"] = nsOf(sampledFeed) / n
		r.layer["stackdist.sampled_ratio"] = float64(sp.Sampled()) / float64(sp.Records())

		grid := make([]analytic.Geometry, ways)
		for i := range grid {
			grid[i] = analytic.Geometry{CacheBytes: l3.Size / int64(ways) * int64(i+1), Sets: sets, Ways: i + 1}
		}
		prof := analytic.NewProfile(sp)
		var est []float64
		for i := 0; i < 5; i++ {
			d, err := r.stage("analytic.Profile.Estimate", func() error { _, err := prof.Estimate(grid); return err })
			if err != nil {
				return err
			}
			est = append(est, nsOf(d)/1e3)
		}
		r.layer["analytic.estimate_us"] = median(est)

		feedShare := nsOf(exactFeed+sampledFeed) / nsOf(ops.perOp)
		r.layer["stackdist.feed_share"] = feedShare
		r.residual("simulate.lru_residual_share", r.decodeMetrics(ops), feedShare)

		speed, err := speedup(3,
			func() error { return readAll(trace.OpenFile(path(r), trace.ReaderOptions{})) },
			func() error {
				return readAll(trace.OpenFileParallel(path(r), trace.ParallelReaderOptions{Workers: 2}))
			})
		if err != nil {
			return err
		}
		r.layer["trace.decode_j2_speedup"] = speed
		r.unverifiedBelow4("trace.decode_j2_speedup")
		return nil
	}
}

// pirateStages times the Pirate's other entry points and the co-run step
// loop underneath them.
func pirateStages(newGen core.GenFactory) func(*run, opSpans) error {
	return func(r *run, ops opSpans) error {
		r.layer["core.profile_s"] = ops.perOp.Seconds()
		detect := pirateConfig(r)
		detect.Threads = 0 // let the thread test choose
		d, err := r.stage("core.DetermineThreads", func() error {
			_, _, err := core.DetermineThreads(detect, newGen)
			return err
		})
		if err != nil {
			return err
		}
		r.layer["core.thread_test_s"] = d.Seconds()
		var overhead core.OverheadReport
		if _, err := r.stage("core.MeasureOverhead", func() error {
			var err error
			_, _, overhead, err = core.MeasureOverhead(pirateConfig(r), newGen)
			return err
		}); err != nil {
			return err
		}
		r.layer["core.overhead_pct"] = overhead.Overhead() * 100

		// The Target's trace on core 0 of the four-core machine with two
		// streaming co-runners, as the Pirate's threads are.
		tr, err := r.genEncodeStages("omnetpp", r.scaled(replayRecords, 4000))
		if err != nil {
			return err
		}
		m, err := machine.New(nehalem())
		if err != nil {
			return err
		}
		if err := m.AttachBlocks(0, "trace", trace.NewReplayer(tr, false), 2); err != nil {
			return err
		}
		for c := 1; c <= 2; c++ {
			if err := m.Attach(c, workload.MustByName("libquantum").New(r.seed+uint64(c))); err != nil {
				return err
			}
		}
		d, err = r.stage("machine.Machine.RunInstructions/corun", func() error {
			return m.RunInstructions(0, tr.Instructions())
		})
		if err != nil {
			return err
		}
		r.layer["machine.corun_step_ns"] = nsOf(d) / float64(tr.Len())
		return nil
	}
}
