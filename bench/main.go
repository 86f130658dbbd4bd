// Command bench is the repository's benchmark harness: five workloads over
// the curve pipeline, each run in a process of its own, reporting end-to-end
// metrics (untraced) or per-layer metrics (traced) under the names, units and
// bounds that BENCHMARK.json fixes. It measures every layer from outside, by
// timing calls into exported functions; nothing outside bench/ knows it
// exists. See README.md for the glossary and for how to run and compare.
//
//	bash bench/run.sh --workload replay_exact --seed 1 --seconds 16 --trace 0
//	go run -C bench . -workload lru_fast -traced -o out/lru.json
//	go run -C bench . -all -o out/a.json
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = fs.Uint64("seed", goldenSeed, "seed of every generator and of the request schedule")
		secs     = fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
		traced   = fs.Bool("traced", false, "same as -trace 1")
		out      = fs.String("o", "", "write the run's full record (host, metrics, notes, problems) to this file")
		all      = fs.Bool("all", false, "run every workload, untraced then traced, each in a child process; merge into -o")
		compare  = fs.Bool("compare", false, "compare two -all files: bench -compare A.json B.json")
		update   = fs.Bool("update-golden", false, "pin this run's curve digest in bench/golden.json instead of checking it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, root, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	runtime.GOMAXPROCS(procs())
	if *secs == 0 {
		*secs = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *all:
		if err := runAll(spec, root, *seed, *secs, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	p := params{workload: *workload, seed: *seed, seconds: *secs, traced: *traced || *trace == 1, scale: 1}
	res, err := runWorkload(spec, root, p, *update)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", p.workload, err))
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return fail(err)
		}
	}
	for _, msg := range res.Problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", p.workload, msg)
	}
	if err := printResultLine(stdout, res); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// goldenSeed is the default seed, the one bench/golden.json pins.
const goldenSeed = 1

// runWorkload runs one workload in this process with a scratch directory
// under bench/out that is removed however the run ends.
func runWorkload(spec *benchSpec, root string, p params, updateGolden bool) (*result, error) {
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "tmp-"+p.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := newRun(p, dir)
	switch p.workload {
	case "replay_exact":
		err = r.runBatch(replayBatch(false), root, updateGolden)
	case "replay_sets":
		err = r.runBatch(replayBatch(true), root, updateGolden)
	case "lru_fast":
		err = r.runBatch(lruBatch(), root, updateGolden)
	case "pirate_profile":
		err = r.runBatch(pirateBatch(), root, updateGolden)
	case "serve_mixed":
		err = r.runServe(root, updateGolden)
	default:
		err = fmt.Errorf("unknown workload (BENCHMARK.json lists %d)", len(spec.Workloads))
	}
	if err != nil {
		return nil, err
	}

	res := &result{
		Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Host: host(),
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Samples: r.samples, WorkUnit: r.workUnit, Exact: r.exact, Problems: r.problems,
	}
	if p.traced {
		if res.PerLayer, err = emit(spec.PerLayer, r.layer, r.notes, false); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(outDir, "trace-"+p.workload+".json"), p.workload, p.seed); err != nil {
			return nil, err
		}
	} else if res.EndToEnd, err = emit(spec.EndToEnd, r.e2e, r.notes, true); err != nil {
		return nil, err
	}
	return res, nil
}

// printResultLine prints the driver's contract: one JSON object, last on
// standard output, with exactly these keys.
func printResultLine(w io.Writer, res *result) error {
	src := res.EndToEnd
	if src == nil {
		src = res.PerLayer
	}
	metrics := make(map[string]metricValue, len(src))
	for name, m := range src {
		metrics[name] = metricValue{Value: m.Value, Unit: m.Unit} // notes stay in the -o record
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Host    hostInfo  `json:"host"`
	Results []*result `json:"results"`
}

// runAll runs every workload twice — untraced, then traced — each in a child
// process, so one workload's heap, page cache and peak RSS never leak into
// another's numbers, and merges the children's records.
func runAll(spec *benchSpec, root string, seed uint64, secs float64, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out", "bench.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	file := resultFile{Host: host()}
	for _, w := range spec.Workloads {
		var merged *result
		for _, trace := range []int{0, 1} {
			part := out + ".part"
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-o", part)
			cmd.Stdout, cmd.Stderr = io.Discard, stderr
			fmt.Fprintf(stderr, "bench: %s trace=%d\n", w.Name, trace)
			runErr := cmd.Run()
			data, err := os.ReadFile(part)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %v (no record written)", w.Name, trace, runErr)
			}
			if err := os.Remove(part); err != nil {
				return err
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return err
			}
			if merged == nil {
				merged = &res
				continue
			}
			merged.PerLayer = res.PerLayer
			merged.Correct = merged.Correct && res.Correct
			merged.Problems = append(merged.Problems, res.Problems...)
		}
		file.Results = append(file.Results, merged)
		printResult(stdout, spec, merged)
	}
	return writeJSON(out, file)
}

// printResult prints one workload's metrics, in BENCHMARK.json order.
func printResult(w io.Writer, spec *benchSpec, res *result) {
	fmt.Fprintf(w, "\n%s  seed %d  %d samples  work unit: %s  correct: %v (%d failed of %d)\n",
		res.Workload, res.Seed, res.Samples, res.WorkUnit, res.Correct, res.Failed, res.Attempted)
	for _, name := range sortedKeys(res.Exact) {
		fmt.Fprintf(w, "  %-40s %14.6g  (exact)\n", name, res.Exact[name])
	}
	for _, ms := range spec.EndToEnd {
		v := res.EndToEnd[ms.Name]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", ms.Name, v.Value, v.Unit)
	}
	for _, ms := range spec.PerLayer {
		v := res.PerLayer[ms.Name]
		if v.Value == 0 && v.Note == "" {
			continue // a layer this workload does not run
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-14s %s\n", ms.Name, v.Value, v.Unit, v.Note)
	}
}
