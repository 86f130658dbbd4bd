package experiments

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachepirate/internal/machine"
)

func quickOpts() Options {
	return Options{Quick: true, Cycles: 1}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.IntervalInstrs != 150_000 || o.Cycles != 2 || o.TraceRecords != 800_000 {
		t.Errorf("full defaults wrong: %+v", o)
	}
	if len(o.Sizes) != 16 {
		t.Errorf("full default sizes = %d", len(o.Sizes))
	}
	q := Options{Quick: true}.withDefaults()
	if q.IntervalInstrs >= o.IntervalInstrs || len(q.Sizes) >= len(o.Sizes) {
		t.Error("quick options not smaller than full")
	}
}

func TestBenchListOverrideAndQuickTrim(t *testing.T) {
	o := Options{Benchmarks: []string{"lbm"}}
	if got := o.benchList("a", "b", "c"); len(got) != 1 || got[0] != "lbm" {
		t.Errorf("override ignored: %v", got)
	}
	q := Options{Quick: true}
	if got := q.benchList("a", "b", "c", "d"); len(got) != 2 {
		t.Errorf("quick trim failed: %v", got)
	}
}

func TestAllRunnersHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Errorf("duplicate runner id %q", r.ID)
		}
		seen[r.ID] = true
		if r.Desc == "" || r.Run == nil {
			t.Errorf("runner %q incomplete", r.ID)
		}
	}
	for _, id := range []string{"fig1", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9", "tab2", "tab3", "fn5", "suite"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if all := All(); all[len(all)-1].ID != "suite" {
		t.Errorf("last runner = %q, want suite", all[len(all)-1].ID)
	}
	if _, ok := ByID("fig1"); !ok {
		t.Error("ByID failed for fig1")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a bogus id")
	}
}

func TestMeasureThroughputValidation(t *testing.T) {
	mcfg := machine.NehalemConfig()
	if _, _, err := measureThroughput(mcfg, factory("povray"), 1, 9, 10, 10); err == nil {
		t.Error("too many instances accepted")
	}
}

func TestThroughputSeriesMonotoneForComputeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("co-run series in -short mode")
	}
	// A compute-bound workload barely shares anything: throughput must
	// scale almost linearly.
	thr, _, err := throughputSeries(machine.NehalemConfig(), factory("povray"), 1, 4, 150_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(thr) != 4 {
		t.Fatalf("series = %v", thr)
	}
	if thr[3] < 3.5 {
		t.Errorf("compute-bound scaling only %.2f at 4 instances", thr[3])
	}
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.Notef("hello %d", 7)
	out := r.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "hello 7") {
		t.Errorf("result rendering: %q", out)
	}
}

var update = flag.Bool("update", false, "rewrite the quick-output goldens with current output")

// TestQuickExperimentsRun runs every experiment at quick scale and
// compares its rendered output byte for byte against
// testdata/<id>.golden, so any moved simulated statistic in any
// experiment shows as a line diff, and fails on a golden no runner
// writes. Regenerate after an intentional
// change with
//
//	go test ./internal/experiments -run TestQuickExperimentsRun -update
//
// and review the testdata/ diff like any other code change.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-scale; skipped in -short mode")
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range goldens {
		if _, ok := ByID(strings.TrimSuffix(filepath.Base(path), ".golden")); !ok {
			t.Errorf("%s: no runner writes this golden", path)
		}
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res, err := r.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s failed: %v", r.ID, err)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s produced no tables", r.ID)
			}
			if res.ID != r.ID {
				t.Errorf("result id %q != runner id %q", res.ID, r.ID)
			}
			path := filepath.Join("testdata", r.ID+".golden")
			got := res.String()
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if d := lineDiff(string(want), got); d != "" {
				t.Errorf("output differs from %s (re-run with -update after reviewing):\n%s", path, d)
			}
		})
	}
}

// lineDiff lists the lines at which want and got differ, "-" for
// want's and "+" for got's, or returns "" when they are identical.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		wl, gl := "", ""
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// TestExperimentWorkersDeterminism runs full experiments serially and
// pooled and demands byte-identical rendered output — the user-facing
// form of the bit-reproducibility guarantee.
func TestExperimentWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-scale; skipped in -short mode")
	}
	for _, id := range []string{"fig8", "suite"} {
		t.Run(id, func(t *testing.T) {
			r, ok := ByID(id)
			if !ok {
				t.Fatalf("%s runner missing", id)
			}
			serialOpts := quickOpts()
			serialOpts.Workers = 1
			serial, err := r.Run(serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parOpts := quickOpts()
			parOpts.Workers = 4
			par, err := r.Run(parOpts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.String() != par.String() {
				t.Errorf("%s output differs between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial, par)
			}
		})
	}
}

// TestBenchmarksOverride: every runner with a default benchmark list
// honours Options.Benchmarks — fig1, fig2, fig9 and fn5 used to
// profile their fixed benchmark whatever the list said.
func TestBenchmarksOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-scale; skipped in -short mode")
	}
	opts := quickOpts()
	opts.Benchmarks = []string{"povray"}
	for _, id := range []string{"fig1", "fig2", "fig9", "fn5"} {
		t.Run(id, func(t *testing.T) {
			r, _ := ByID(id)
			res, err := r.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if title := res.Tables[0].Title; !strings.Contains(title, "povray") {
				t.Errorf("first table %q does not name povray", title)
			}
		})
	}
}

// TestRunAllOrderAndErrors: RunAll must return results in request
// order regardless of worker count, and reject nothing silently.
func TestRunAllOrderAndErrors(t *testing.T) {
	opts := quickOpts()
	opts.Workers = 4
	// Bad input is rejected before anything runs, so these cases cost
	// nothing and run under -short too.
	if _, err := RunAll(opts, []string{"nope"}); !errors.Is(err, ErrUnknown) {
		t.Errorf("RunAll(unknown experiment) = %v, want ErrUnknown", err)
	}
	bad := opts
	bad.Benchmarks = []string{"nope"}
	_, err := RunAll(bad, []string{"fig8"})
	if want := `experiments: unknown benchmark "nope"`; err == nil || err.Error() != want {
		t.Errorf("RunAll(unknown benchmark) = %v, want %s", err, want)
	}
	for _, tc := range []struct {
		option string
		edit   func(*Options)
	}{
		{"TraceRecords", func(o *Options) { o.TraceRecords = -5 }},
		{"Cycles", func(o *Options) { o.Cycles = -1 }},
		{"Sizes", func(o *Options) { o.Sizes = []int64{1 << 20, 64 << 20} }},
		{"Sizes", func(o *Options) { o.Sizes = []int64{0} }},
	} {
		bad := opts
		tc.edit(&bad)
		_, err := RunAll(bad, []string{"fig6"})
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Option != tc.option {
			t.Errorf("RunAll(bad %s) = %v, want an OptionError naming it", tc.option, err)
		}
	}
	if testing.Short() {
		t.Skip("experiments are seconds-scale; skipped in -short mode")
	}
	ids := []string{"fig2", "fig1"}
	results, err := RunAll(opts, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ID != "fig2" || results[1].ID != "fig1" {
		got := make([]string, len(results))
		for i, r := range results {
			got[i] = r.ID
		}
		t.Errorf("RunAll order = %v, want [fig2 fig1]", got)
	}
}
