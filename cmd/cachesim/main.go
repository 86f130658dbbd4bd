// Command cachesim is the trace-driven reference simulator (§III-B):
// it captures an address trace from a suite benchmark (or reads one
// from a file), sweeps it over a range of L3 sizes, and prints the
// reference fetch-ratio curve.
//
// Usage:
//
//	cachesim [-records N] [-skip N] [-policy nehalem|lru|plru|random]
//	         [-mode ways|sets] [-engine auto|fused|persize|analytic]
//	         [-nowarm] [-seed N] [-save FILE] [-load FILE] [-stream]
//	         [-analytic] [-sample-rate R] [-sample-size N] [-csv]
//	         [-j N] [-decode-j N] [-cpuprofile FILE] <benchmark>
//
// Sweeps in either -mode default to the fused engine (one trace replay
// advancing a group of sizes at once); -engine persize forces the
// historical one-machine-per-size path, kept as the oracle — the
// curves are bit-identical either way. -j sets the sweep
// width (default: one per CPU): the per-size engine fans sizes out
// across workers, and the fused engine replays that many replica
// groups at once, each over its own source. The curve is bit-identical
// at any width (pinned by internal/conformance).
//
// -stream replays a -load file out of core: blocks are decoded as the
// sweep consumes them, in O(block) memory, so the trace can be far
// larger than RAM. The curve is bit-identical to the in-memory path
// (pinned by internal/conformance and the CI CSV diff). -decode-j
// widens the v2 frame decode of each open source: frames are
// checksum-verified and varint-decoded by a worker pool and
// reassembled in order. The default 1 decodes on the sweep's own
// goroutine — decode is ~5% of a replay, and every replica group opens
// its own source, so -j N -decode-j M runs N×M decode workers.
//
// -analytic additionally prints the SHARDS-sampled analytic estimate
// (internal/analytic): one sampled profiling pass instead of a replay
// per size, with per-point sampling error bars on stderr. -sample-rate
// sets the SHARDS rate (1.0 = exact); -sample-size caps tracked lines
// instead (fixed-size mode, rate adapts). Both compose with -stream —
// the profile is built from the streamed blocks in O(sample) memory.
// -engine analytic makes the estimate the main curve.
package main

import (
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

func main() {
	records := flag.Int("records", 400_000, "trace length in memory accesses")
	skip := flag.Int("skip", 0, "records to skip before capture (hot-code fast-forward)")
	policy := flag.String("policy", "nehalem", "L3 replacement policy: nehalem, lru, plru, random")
	mode := flag.String("mode", "ways", "how to shrink the cache: ways (constant sets) or sets")
	seed := flag.Uint64("seed", 1, "workload seed")
	save := flag.String("save", "", "write the captured trace to this file")
	load := flag.String("load", "", "replay a trace file instead of capturing")
	stream := flag.Bool("stream", false, "replay -load out of core: streamed decode in O(block) memory, never materialising the trace")
	engine := flag.String("engine", "auto", "sweep engine: auto (= fused), fused (sizes share a replay), persize (one machine per size, the oracle), analytic (sampled estimate)")
	noWarm := flag.Bool("nowarm", false, "measure the first replay cold (no warm-up pass)")
	csv := flag.Bool("csv", false, "emit CSV")
	stack := flag.Bool("stack", false, "also print the analytical stack-distance model's curve")
	mattson := flag.Bool("mattson", false, "also print the exact single-pass Mattson curve of the bare L3 (LRU, ByWays only)")
	analyticFlag := flag.Bool("analytic", false, "also print the SHARDS-sampled analytic estimate with error bars")
	sampleRate := flag.Float64("sample-rate", 0.01, "analytic SHARDS sampling rate in (0, 1]; 1.0 is exact")
	sampleSize := flag.Int("sample-size", 0, "analytic fixed-size mode: cap tracked lines, rate adapts (overrides -sample-rate)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers across cache sizes (1 = serial)")
	decodeWorkers := flag.Int("decode-j", 1, "parallel v2 frame-decode workers per open source for -stream (1 = decode on the sweep's goroutine)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var pol cache.PolicyKind
	switch *policy {
	case "nehalem":
		pol = cache.Nehalem
	case "lru":
		pol = cache.LRU
	case "plru":
		pol = cache.PseudoLRU
	case "random":
		pol = cache.Random
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}
	var swMode simulate.SweepMode
	switch *mode {
	case "ways":
		swMode = simulate.ByWays
	case "sets":
		swMode = simulate.BySets
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	var eng simulate.Engine
	switch *engine {
	case "auto":
		eng = simulate.EngineAuto
	case "fused":
		eng = simulate.EngineFused
	case "persize":
		eng = simulate.EnginePerSize
	case "analytic":
		eng = simulate.EngineAnalytic
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		os.Exit(2)
	}

	if *stream {
		if *load == "" {
			fmt.Fprintln(os.Stderr, "-stream requires -load FILE")
			os.Exit(2)
		}
		if *stack || *save != "" {
			fmt.Fprintln(os.Stderr, "-stream is incompatible with -stack and -save (they need the trace in memory)")
			os.Exit(2)
		}
	}

	var tr *trace.Trace
	name := *load
	if *stream {
		// Out of core: the sweep opens one Reader per consumer below;
		// the trace is never materialised here.
	} else if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: cachesim [flags] <benchmark>  (or -load FILE)")
			os.Exit(2)
		}
		name = flag.Arg(0)
		spec, ok := workload.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
			os.Exit(2)
		}
		tr = simulate.CaptureTrace(spec.New, *seed, *skip, *records)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tr.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "trace saved to %s (%d records)\n", *save, tr.Len())
	}

	mcfg := machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), pol)
	simCfg := simulate.Config{
		Machine: mcfg, Mode: swMode, Engine: eng, NoWarm: *noWarm, Workers: *workers,
		SampleRate: *sampleRate, SampleSize: *sampleSize,
	}
	openSource := func() (trace.BlockSource, error) {
		if *stream {
			if *decodeWorkers > 1 {
				// OpenFileParallel falls back to the sync reader for v1
				// files, so -decode-j is safe on either format.
				return trace.OpenFileParallel(*load, trace.ParallelReaderOptions{Workers: *decodeWorkers})
			}
			return trace.OpenFile(*load, trace.ReaderOptions{})
		}
		return trace.NewReplayer(tr, false), nil
	}
	var curve *analysis.Curve
	var err error
	if *stream {
		curve, err = simulate.SweepStream(simCfg, openSource)
	} else {
		curve, err = simulate.Sweep(simCfg, tr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	curve.Name = name
	t := report.CurveTable(fmt.Sprintf("%s — reference sweep (%s policy, by %s)", name, *policy, *mode), curve)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}

	if *stack {
		sizes := make([]int64, len(curve.Points))
		for i, p := range curve.Points {
			sizes[i] = p.CacheBytes
		}
		sc, err := simulate.StackModelCurve(tr, sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc.Name = name + "/stack"
		st := report.CurveTable(name+" — analytical stack-distance model (fully-associative LRU)", sc)
		if *csv {
			fmt.Print(st.CSV())
		} else {
			fmt.Print(st.String())
		}
	}

	if *mattson {
		mc, err := simulate.MattsonLRUCurveStream(simCfg, openSource)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mc.Name = name + "/mattson"
		mt := report.CurveTable(name+" — exact Mattson single-pass curve (bare L3, set-associative LRU)", mc)
		if *csv {
			fmt.Print(mt.CSV())
		} else {
			fmt.Print(mt.String())
		}
	}

	if *analyticFlag {
		est, err := simulate.AnalyticEstimate(simCfg, openSource)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ac := &analysis.Curve{Name: name + "/analytic"}
		maxErr := 0.0
		for _, p := range est.Points {
			ac.Points = append(ac.Points, analysis.Point{
				CacheBytes: p.CacheBytes,
				FetchRatio: p.MissRatio,
				MissRatio:  p.MissRatio,
				Trusted:    true,
				Samples:    1,
			})
			if p.StdErr > maxErr {
				maxErr = p.StdErr
			}
		}
		ac.Sort()
		at := report.CurveTable(name+" — analytic SHARDS estimate (sampled profile, set-assoc corrected)", ac)
		if *csv {
			fmt.Print(at.CSV())
		} else {
			fmt.Print(at.String())
		}
		fmt.Fprintf(os.Stderr, "analytic: rate %.4g, sampled %d/%d records, max miss-ratio stderr ±%.4f\n",
			est.Rate, est.Sampled, est.Records, maxErr)
	}
}
