// Command experiments regenerates the paper's tables and figures, the
// extensions, the ablations and the suite characterisation on the
// simulated machine and prints them as text tables.
//
// Usage:
//
//	experiments [-quick] [-interval N] [-cycles N] [-trace N]
//	            [-benchmarks a,b,c] [-seed N] [-j N]
//	            [all|fig1|fig2|fig4|...|suite ...]
//
// With no experiment arguments it runs everything in paper order; -list
// names every ID. -benchmarks replaces each experiment's default
// benchmark list. Experiments and their per-benchmark runs fan out
// across -j workers (default: one per CPU); -j 1 reproduces the serial
// order exactly, and results are bit-identical at any width. An unknown
// experiment or benchmark, or a flag out of range (-cycles or -trace
// below 0), exits 2 before anything runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cachepirate/internal/experiments"
)

// flagNames names the options an OptionError can blame by the flags
// that set them.
var flagNames = map[string]string{"IntervalInstrs": "-interval", "Cycles": "-cycles", "TraceRecords": "-trace"}

func main() {
	quick := flag.Bool("quick", false, "shrink intervals, sizes and benchmark lists (seconds instead of minutes)")
	interval := flag.Uint64("interval", 0, "measurement interval in target instructions (0 = default)")
	cycles := flag.Int("cycles", 0, "measurement cycles to average (0 = default)")
	traceRecs := flag.Int("trace", 0, "reference trace length in records (0 = default)")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark override")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers for independent runs (1 = serial)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-5s %s\n", r.ID, r.Desc)
		}
		return
	}

	opts := experiments.Options{
		Quick:          *quick,
		IntervalInstrs: *interval,
		Cycles:         *cycles,
		TraceRecords:   *traceRecs,
		Seed:           *seed,
		Workers:        *workers,
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}

	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
	}
	results, err := experiments.RunAll(opts, ids)
	var oe *experiments.OptionError
	switch {
	case errors.As(err, &oe):
		fmt.Fprintln(os.Stderr, "experiments: "+oe.Explain(flagNames))
		os.Exit(2)
	case errors.Is(err, experiments.ErrUnknown):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range results {
		fmt.Println(res)
	}
}
