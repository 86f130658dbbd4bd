// Command pirate profiles a suite benchmark with Cache Pirating and
// prints its CPI / bandwidth / fetch-ratio / miss-ratio curve.
//
// Usage:
//
//	pirate [-interval N] [-cycles N] [-threads N] [-seed N]
//	       [-noprefetch] [-overhead] [-csv] <benchmark>
//	pirate -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cachepirate"
	"cachepirate/internal/report"
)

func main() {
	interval := flag.Uint64("interval", 0, "measurement interval in target instructions (0 = default 250k)")
	cycles := flag.Int("cycles", 0, "measurement cycles to average (0 = default 3)")
	threads := flag.Int("threads", 0, "pirate threads (0 = auto-detect per §III-C)")
	seed := flag.Uint64("seed", 0, "workload seed")
	noPrefetch := flag.Bool("noprefetch", false, "disable hardware prefetching (Fig. 9 mode)")
	overhead := flag.Bool("overhead", false, "also measure profiling overhead vs running alone")
	csv := flag.Bool("csv", false, "emit the curve as CSV instead of a table")
	plot := flag.String("plot", "", "also render an ASCII chart of the given metric: cpi, bw, fetch, miss")
	jsonOut := flag.Bool("json", false, "emit the curve as JSON instead of a table")
	list := flag.Bool("list", false, "list suite benchmarks and exit")
	all := flag.Bool("all", false, "profile the whole suite and print one sparkline summary per benchmark")
	flag.Parse()

	if *list {
		for _, s := range cachepirate.Workloads() {
			fmt.Printf("%-12s %-28s %s\n", s.Name, s.Paper, s.Description)
		}
		return
	}
	if *all {
		profileAll(*interval, *cycles, *threads, *seed, *noPrefetch)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pirate [flags] <benchmark>   (or pirate -list / pirate -all)")
		os.Exit(2)
	}
	spec := func() cachepirate.WorkloadSpec {
		for _, s := range cachepirate.Workloads() {
			if s.Name == flag.Arg(0) {
				return s
			}
		}
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (use -list)\n", flag.Arg(0))
		os.Exit(2)
		panic("unreachable")
	}()

	mcfg := cachepirate.NehalemMachine()
	if *noPrefetch {
		mcfg = cachepirate.NehalemMachineNoPrefetch()
	}
	cfg := cachepirate.Config{
		Machine:        mcfg,
		IntervalInstrs: *interval,
		Cycles:         *cycles,
		Threads:        *threads,
		Seed:           *seed,
	}

	var (
		curve *cachepirate.Curve
		rep   *cachepirate.Report
		ov    cachepirate.OverheadReport
		err   error
	)
	if *overhead {
		curve, rep, ov, err = cachepirate.MeasureOverhead(cfg, spec.New)
	} else {
		curve, rep, err = cachepirate.Profile(cfg, spec.New)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	curve.Name = spec.Name

	// -json and -csv are read by programs: stdout carries the curve and
	// nothing else, what the run has to say beside it goes to stderr.
	info := io.Writer(os.Stdout)
	if *jsonOut || *csv {
		info = os.Stderr
	}
	t := report.CurveTable(spec.Name+" ("+spec.Paper+")", curve)
	switch {
	case *jsonOut:
		if err := curve.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *csv:
		fmt.Print(t.CSV())
	default:
		fmt.Print(t.String())
		fmt.Println(report.CurveSparklines(curve))
	}
	if *plot != "" {
		fmt.Fprint(info, report.CurvePlot(spec.Name+" — "+*plot+" vs cache (MB)", curve, *plot).String())
	}
	fmt.Fprintf(info, "pirate threads: %d", rep.ThreadsUsed)
	if len(rep.ThreadTestCPIs) > 0 {
		fmt.Fprintf(info, " (thread-test CPIs: %v)", rep.ThreadTestCPIs)
	}
	fmt.Fprintln(info)
	if *overhead {
		fmt.Fprintf(info, "overhead: %.1f%% over running alone (%d target instructions)\n",
			ov.Overhead()*100, ov.TargetInstructions)
	}
}

// profileAll sweeps the whole suite and prints one summary line per
// benchmark — the quickest way to see who is cache-sensitive.
func profileAll(interval uint64, cycles, threads int, seed uint64, noPrefetch bool) {
	mcfg := cachepirate.NehalemMachine()
	if noPrefetch {
		mcfg = cachepirate.NehalemMachineNoPrefetch()
	}
	if interval == 0 {
		interval = 100_000 // whole-suite sweeps favour speed
	}
	if cycles == 0 {
		cycles = 2
	}
	for _, spec := range cachepirate.Workloads() {
		cfg := cachepirate.Config{
			Machine:        mcfg,
			IntervalInstrs: interval,
			Cycles:         cycles,
			Threads:        threads,
			Seed:           seed,
		}
		curve, rep, err := cachepirate.Profile(cfg, spec.New)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", spec.Name, err)
			continue
		}
		trusted := 0
		for _, p := range curve.Points {
			if p.Trusted {
				trusted++
			}
		}
		fmt.Printf("%-12s threads=%d trusted=%2d/%2d  %s\n",
			spec.Name, rep.ThreadsUsed, trusted, len(curve.Points),
			report.CurveSparklines(curve))
	}
}
