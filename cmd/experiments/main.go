// Command experiments regenerates the paper's tables and figures on
// the simulated machine and prints them as text tables.
//
// Usage:
//
//	experiments [-quick] [-interval N] [-cycles N] [-trace N]
//	            [-benchmarks a,b,c] [-seed N] [-j N]
//	            [-engine auto|fused|persize]
//	            [all|fig1|fig2|fig4|fig6|fig7|fig8|fig9|tab2|tab3|fn5 ...]
//
// With no experiment arguments it runs everything in paper order.
// Experiments and their per-benchmark runs fan out across -j workers
// (default: one per CPU); -j 1 reproduces the serial order exactly,
// and results are bit-identical at any width.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cachepirate/internal/experiments"
	"cachepirate/internal/simulate"
)

func main() {
	quick := flag.Bool("quick", false, "shrink intervals, sizes and benchmark lists (seconds instead of minutes)")
	interval := flag.Uint64("interval", 0, "measurement interval in target instructions (0 = default)")
	cycles := flag.Int("cycles", 0, "measurement cycles to average (0 = default)")
	traceRecs := flag.Int("trace", 0, "reference trace length in records (0 = default)")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark override")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for independent runs (1 = serial)")
	engine := flag.String("engine", "auto", "reference-sweep engine: auto (= fused), fused, persize (the oracle; curves identical)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-5s %s\n", r.ID, r.Desc)
		}
		return
	}

	var eng simulate.Engine
	switch *engine {
	case "auto":
		eng = simulate.EngineAuto
	case "fused":
		eng = simulate.EngineFused
	case "persize":
		eng = simulate.EnginePerSize
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		os.Exit(2)
	}

	opts := experiments.Options{
		Quick:          *quick,
		IntervalInstrs: *interval,
		Cycles:         *cycles,
		TraceRecords:   *traceRecs,
		Seed:           *seed,
		Workers:        *workers,
		Engine:         eng,
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}

	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
	}
	for _, id := range ids {
		if _, ok := experiments.ByID(id); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
	}
	results, err := experiments.RunAll(opts, ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range results {
		fmt.Println(res)
	}
}
