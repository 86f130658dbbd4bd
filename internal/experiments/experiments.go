// Package experiments regenerates every table and figure of the
// paper's evaluation on the simulated machine, plus the extensions,
// ablations and the suite characterisation. Each experiment returns a
// Result holding text tables (internal/report) plus free-form notes;
// cmd/experiments is the one command that prints them.
//
// The per-experiment index lives in DESIGN.md §5; EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
	"cachepirate/internal/runner"
	"cachepirate/internal/workload"
)

// Options tunes experiment cost. The zero value gives the full-scale
// (minutes) configuration; Quick shrinks everything to smoke-test
// scale (seconds).
type Options struct {
	// IntervalInstrs is the Target measurement interval (default 150k;
	// the model-scale analogue of the paper's 100M).
	IntervalInstrs uint64
	// Cycles is the number of measurement cycles averaged (default 2).
	Cycles int
	// TraceRecords is the reference-trace length (default 400k
	// accesses; the paper traces ~1B).
	TraceRecords int
	// Sizes overrides the cache-size grid (default 0.5MB steps).
	Sizes []int64
	// Benchmarks overrides each experiment's default benchmark list.
	Benchmarks []string
	// Seed seeds every workload (default 1).
	Seed uint64
	// Quick shrinks sizes, intervals and benchmark lists for CI.
	Quick bool
	// Workers bounds how many independent runs (one fresh machine
	// each) execute concurrently: per-benchmark profiles inside an
	// experiment and whole experiments inside RunAll. Results are
	// bit-identical at any width because every run seeds its own
	// workload on its own machine; <= 0 means one worker per CPU, 1
	// reproduces the historical serial order exactly.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.IntervalInstrs == 0 {
		o.IntervalInstrs = 150_000
		if o.Quick {
			o.IntervalInstrs = 25_000
		}
	}
	if o.Cycles == 0 {
		o.Cycles = 2
	}
	if o.TraceRecords == 0 {
		// Long enough to circulate the suite's slowest-reuse working
		// sets at least twice (cigar's 6MB population), so the warmed
		// replay pass measures steady state.
		o.TraceRecords = 800_000
		if o.Quick {
			o.TraceRecords = 60_000
		}
	}
	if len(o.Sizes) == 0 {
		l3 := int64(8 << 20)
		step := int64(512 << 10)
		if o.Quick {
			step = 2 << 20
		}
		for s := step; s <= l3; s += step {
			o.Sizes = append(o.Sizes, s)
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// benchList returns the experiment's benchmark list: the explicit
// override, or defaults (trimmed under Quick).
func (o Options) benchList(defaults ...string) []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	if o.Quick && len(defaults) > 2 {
		return defaults[:2]
	}
	return defaults
}

// profileConfig builds the harness configuration for an experiment.
func (o Options) profileConfig(mcfg machine.Config) core.Config {
	return core.Config{
		Machine:        mcfg,
		Sizes:          o.Sizes,
		IntervalInstrs: o.IntervalInstrs,
		Cycles:         o.Cycles,
		Seed:           o.Seed,
		Workers:        o.Workers,
	}
}

// OptionError is Options.Validate's verdict: the option at fault, by
// its Options field name, and why.
type OptionError struct {
	Option string // "IntervalInstrs", "Cycles", "Sizes" or "TraceRecords"
	Err    error
}

func (e *OptionError) Error() string { return "experiments: " + e.Explain(nil) }

func (e *OptionError) Unwrap() error { return e.Err }

// Explain renders the error under a front door's name for the option,
// a flag say: "-cycles: core: negative measurement cycle count -1". An
// option the door does not name keeps its field name.
func (e *OptionError) Explain(names map[string]string) string {
	name, ok := names[e.Option]
	if !ok {
		name = e.Option
	}
	return name + ": " + e.Err.Error()
}

// Validate checks the options, defaults filled in, before any
// experiment runs; RunAll applies it first. The options the profile
// harness reads go through the harness's own rule, core.Config.Validate
// on the resolved Nehalem config, one at a time so the verdict names
// one option. Seed and Workers are not bounded.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.TraceRecords < 0 {
		return &OptionError{Option: "TraceRecords", Err: fmt.Errorf("negative reference trace length %d", o.TraceRecords)}
	}
	cfg := o.profileConfig(machine.NehalemConfig())
	for _, c := range []struct {
		option string
		cfg    core.Config
	}{
		{"IntervalInstrs", core.Config{Machine: cfg.Machine, IntervalInstrs: cfg.IntervalInstrs}},
		{"Cycles", core.Config{Machine: cfg.Machine, Cycles: cfg.Cycles}},
		{"Sizes", core.Config{Machine: cfg.Machine, Sizes: cfg.Sizes}},
	} {
		if err := c.cfg.Validate(); err != nil {
			return &OptionError{Option: c.option, Err: err}
		}
	}
	return nil
}

// pool is the worker pool every experiment fan-out shares.
func (o Options) pool() runner.Pool { return runner.Pool{Workers: o.Workers} }

// forEachBench runs body(bench) for every benchmark concurrently
// across the option's pool and returns the per-benchmark payloads in
// list order — the standard shape of a fig/table runner: parallel
// compute, then serial in-order rendering.
func forEachBench[T any](o Options, benches []string, body func(bench string) (T, error)) ([]T, error) {
	return runner.Map(context.Background(), o.pool(), len(benches),
		func(_ context.Context, i int) (T, error) {
			return body(benches[i])
		})
}

// eachBench is forEachBench for runners that render each benchmark on
// its own: body fills a part per benchmark, and the parts' tables and
// notes are appended to res in list order.
func eachBench(o Options, res *Result, benches []string, body func(bench string, part *Result) error) error {
	parts, err := forEachBench(o, benches, func(bench string) (*Result, error) {
		part := &Result{}
		return part, body(bench, part)
	})
	if err != nil {
		return err
	}
	for _, p := range parts {
		res.Tables = append(res.Tables, p.Tables...)
		res.Notes = append(res.Notes, p.Notes...)
	}
	return nil
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Notes  []string
}

// Add appends a table.
func (r *Result) Add(t *report.Table) { r.Tables = append(r.Tables, t) }

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Options) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig1", "OMNeT++ throughput scaling explained by its CPI curve", Fig1Omnet},
		{"fig2", "LBM scaling limited by off-chip bandwidth", Fig2LBM},
		{"fig4", "micro-benchmark validation: LRU vs Nehalem reference simulators", Fig4MicroValidation},
		{"fig6", "pirate vs reference fetch-ratio curves across the suite", Fig6FetchRatioCurves},
		{"fig7", "absolute and relative fetch-ratio errors", Fig7FetchRatioErrors},
		{"fig8", "CPI/BW/fetch/miss curves with prefetching enabled", Fig8MetricCurves},
		{"fig9", "LBM with hardware prefetching disabled", Fig9LBMNoPrefetch},
		{"tab2", "cache stolen with 1 vs 2 pirate threads (hardest applications)", Table2HardestToSteal},
		{"tab3", "overhead and CPI error vs measurement interval size", Table3IntervalSweep},
		{"fn5", "related work: Xu et al. stressor distorts the target", RelatedWorkXu},
		{"ext1", "extension (§VI): bandwidth bandit — CPI vs available off-chip bandwidth", Ext1BandwidthBandit},
		{"ext2", "extension: pirate vs trace simulator vs stack-distance model", Ext2ReferenceMethods},
		{"ext3", "extension: the same harness on two different machines", Ext3Portability},
		{"ext4", "extension: heterogeneous pair co-run prediction from pirate curves", Ext4PairPrediction},
		{"ext5", "extension: phase-resolved profiling (per-size CPI spread)", Ext5PhaseResolved},
		{"abl1", "ablation: way-granular vs naive pirate span distribution", Abl1WayQuantum},
		{"abl2", "ablation: adaptive vs truncated target warm-up", Abl2WarmupPolicy},
		{"abl3", "ablation: pirate thread count vs target distortion", Abl3ThreadCount},
		{"suite", "suite characterisation: solo ground truth at 1-16 L3 ways + stack-distance knees", SuiteCharacterisation},
	}
}

// ErrUnknown is wrapped by RunAll's errors for an experiment ID or a
// benchmark name it does not know.
var ErrUnknown = errors.New("experiments: unknown")

// RunAll executes the named experiments (every experiment, in paper
// order, when ids is empty) and returns their results in request
// order. The options (Validate, first), experiment IDs and
// Options.Benchmarks are checked before anything runs. Experiments fan
// out across the option's worker pool — they are fully independent
// apart from the fig6/fig7 shared-computation memo, which deduplicates
// concurrent callers — and the first failure cancels experiments that
// have not started yet.
func RunAll(opts Options, ids []string) ([]*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		for _, r := range All() {
			ids = append(ids, r.ID)
		}
	}
	rs := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("%w experiment %q", ErrUnknown, id)
		}
		rs[i] = r
	}
	for _, name := range opts.Benchmarks {
		if _, ok := workload.ByName(name); !ok {
			return nil, fmt.Errorf("%w benchmark %q", ErrUnknown, name)
		}
	}
	return runner.Map(context.Background(), opts.pool(), len(rs),
		func(_ context.Context, i int) (*Result, error) {
			res, err := rs[i].Run(opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rs[i].ID, err)
			}
			return res, nil
		})
}

// ByID looks up an experiment runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// factory returns the suite benchmark's generator factory.
func factory(name string) core.GenFactory {
	spec := workload.MustByName(name)
	return spec.New
}
