// Command cachesim is the trace-driven reference simulator (§III-B):
// it captures an address trace from a suite benchmark (or reads one
// from a file), sweeps it over a range of L3 sizes, and prints the
// curve of the engine -engine names.
//
// Usage:
//
//	cachesim [-records N] [-skip N] [-policy nehalem|lru|plru|random]
//	         [-mode ways|sets] [-engine fused|persize|mattson|analytic]
//	         [-nowarm] [-seed N] [-save FILE] [-load FILE]
//	         [-sample-rate R] [-sample-size N] [-stack] [-csv]
//	         [-j N] [-cpuprofile FILE] <benchmark>
//
// The flags that shape the sweep (-engine, -policy, -mode, -sample-rate,
// -sample-size) make a simulate.Config, and simulate.Config.Validate,
// the rule the curve server applies to the same knobs, checks it before
// any capture: a rejection exits 2 and names the flags at fault.
//
// -engine is simulate.Engine by name. Sweeps in either -mode default
// to the fused engine (one trace replay advancing a group of sizes at
// once); -engine persize forces the historical one-machine-per-size
// path, kept as the oracle — the curves are bit-identical either way.
// -j sets the sweep width (default: one per CPU): the per-size engine
// fans sizes out across workers, and the fused engine replays that
// many replica groups at once, each over its own source. The curve is
// bit-identical at any width (pinned by internal/conformance).
//
// -engine mattson prints the exact single-pass Mattson curve of the
// bare L3 (LRU policy, ways mode only). -engine analytic prints the
// SHARDS-sampled analytic estimate (internal/analytic): one sampled
// profiling pass instead of a replay per size, with the sampling
// metadata and the largest per-point error bar on stderr. -sample-rate
// sets the SHARDS rate (1.0 = exact); -sample-size caps tracked lines
// instead (fixed-size mode, starting at rate 1.0 and adapting down
// unless -sample-rate is also given).
//
// -load replays a trace file out of core: blocks are decoded as the
// engine consumes them, in O(block) memory, so the trace can be far
// larger than RAM. The curve is bit-identical to replaying the same
// records from memory (pinned by internal/conformance and
// TestLoadMatchesCapture). Each consumer opens the file once and
// decodes up to three frames ahead on its own goroutine (trace.Reader),
// so -j N runs N decode goroutines beside N replays. Only -stack reads
// a -load file into memory. -save writes a capture; to re-frame a
// file, use `tracer compact`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// flagNames are the flags that set simulate.Config fields.
var flagNames = map[simulate.Field]string{
	simulate.FieldEngine: "-engine", simulate.FieldPolicy: "-policy", simulate.FieldMode: "-mode",
	simulate.FieldSampleRate: "-sample-rate", simulate.FieldSampleSize: "-sample-size",
}

// exit prints its arguments to stderr and exits with code.
func exit(code int, a ...any) {
	fmt.Fprintln(os.Stderr, a...)
	os.Exit(code)
}

func main() {
	records := flag.Int("records", 400_000, "trace length in memory accesses")
	skip := flag.Int("skip", 0, "records to skip before capture (hot-code fast-forward)")
	policy := flag.String("policy", "nehalem", "L3 replacement policy: nehalem, lru, plru, random")
	mode := flag.String("mode", "ways", "how to shrink the cache: ways (constant sets) or sets")
	seed := flag.Uint64("seed", 1, "workload seed")
	save := flag.String("save", "", "write the captured trace to this file")
	load := flag.String("load", "", "replay a trace file instead of capturing")
	engine := flag.String("engine", "fused", "engine that draws the curve: fused (sizes share a replay), persize (one machine per size, the oracle), mattson (exact single pass over the bare L3; lru, ways only), analytic (sampled estimate, error bars on stderr)")
	noWarm := flag.Bool("nowarm", false, "measure the first replay cold (no warm-up pass)")
	csv := flag.Bool("csv", false, "emit CSV")
	stack := flag.Bool("stack", false, "also print the analytical stack-distance model's curve")
	sampleRate := flag.Float64("sample-rate", 0.01, "analytic SHARDS sampling rate in (0, 1]; 1.0 is exact")
	sampleSize := flag.Int("sample-size", 0, "analytic fixed-size mode: cap tracked lines, rate adapts (overrides -sample-rate)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers across cache sizes (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			exit(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			exit(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	pol, err := cache.ParsePolicy(*policy)
	if err != nil {
		exit(2, err)
	}
	swMode, err := simulate.ParseMode(*mode)
	if err != nil {
		exit(2, err)
	}
	eng, err := simulate.ParseEngine(*engine)
	if err != nil {
		exit(2, err)
	}
	// Fixed-size mode starts at rate 1.0 unless a rate is given: the
	// -sample-rate default belongs to fixed-rate mode.
	rateGiven := false
	flag.Visit(func(f *flag.Flag) { rateGiven = rateGiven || f.Name == "sample-rate" })
	rate := *sampleRate
	if *sampleSize > 0 && !rateGiven {
		rate = 0
	}
	warm := 0
	if *noWarm {
		warm = -1
	}
	simCfg := simulate.Config{
		Machine: machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), pol),
		Mode:    swMode, Engine: eng, WarmPasses: warm, Workers: *workers,
		SampleRate: rate, SampleSize: *sampleSize,
	}
	// The curve server's rule for the same knobs, before any capture.
	// Validate reads a zero rate as unset; a rate given must be one.
	err = simCfg.Validate()
	if err == nil && rateGiven {
		err = simulate.CheckSampleRate(*sampleRate)
	}
	if err != nil {
		var ce *simulate.ConfigError
		if errors.As(err, &ce) {
			err = errors.New(ce.Explain(flagNames))
		}
		exit(2, err)
	}

	if *records < 1 || *skip < 0 {
		exit(2, fmt.Sprintf("-records must be at least 1 and -skip at least 0 (got %d and %d)", *records, *skip))
	}
	if *load != "" && *save != "" {
		exit(2, "-save writes a capture; to re-frame a -load file use: tracer compact [-frame N] -o FILE SRC")
	}

	var tr *trace.Trace
	name := *load
	if *load != "" {
		// Out of core: the engine opens one Reader per consumer below.
		// Only the stack model needs the records in memory.
		if *stack {
			f, err := os.Open(*load)
			if err != nil {
				exit(1, err)
			}
			tr, err = trace.Read(f)
			f.Close()
			if err != nil {
				exit(1, err)
			}
		}
	} else {
		if flag.NArg() != 1 {
			exit(2, "usage: cachesim [flags] <benchmark>  (or -load FILE)")
		}
		name = flag.Arg(0)
		spec, ok := workload.ByName(name)
		if !ok {
			exit(2, fmt.Sprintf("unknown benchmark %q", name))
		}
		tr = simulate.CaptureTrace(spec.New, *seed, *skip, *records)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			exit(1, err)
		}
		if err := tr.WriteV2(f); err != nil {
			exit(1, err)
		}
		if err := f.Close(); err != nil {
			exit(1, err)
		}
		fmt.Fprintf(os.Stderr, "trace saved to %s (%d records)\n", *save, tr.Len())
	}

	openSource := func() (trace.BlockSource, error) {
		if *load != "" {
			return trace.OpenFile(*load, trace.ReaderOptions{})
		}
		return trace.NewReplayer(tr, false), nil
	}
	var curve *analysis.Curve
	if eng == simulate.EngineAnalytic {
		// The error bars come from the same profiling pass as the curve.
		est, err := simulate.AnalyticEstimate(context.Background(), simCfg, openSource)
		if err != nil {
			exit(1, err)
		}
		maxErr := 0.0
		for _, p := range est.Points {
			maxErr = max(maxErr, p.StdErr)
		}
		fmt.Fprintf(os.Stderr, "analytic: rate %.4g, sampled %d/%d records, max miss-ratio stderr ±%.4f\n",
			est.Rate, est.Sampled, est.Records, maxErr)
		curve = est.Curve()
	} else if curve, err = simulate.SweepStream(simCfg, openSource); err != nil {
		exit(1, err)
	}
	curve.Name = name
	emit := func(t *report.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
		}
	}
	emit(report.CurveTable(fmt.Sprintf("%s — %s curve (%s policy, by %s)", name, eng, pol, swMode), curve))

	if *stack {
		sizes := make([]int64, len(curve.Points))
		for i, p := range curve.Points {
			sizes[i] = p.CacheBytes
		}
		sc, err := simulate.StackModelCurve(tr, sizes)
		if err != nil {
			exit(1, err)
		}
		sc.Name = name + "/stack"
		emit(report.CurveTable(name+" — analytical stack-distance model (fully-associative LRU)", sc))
	}
}
