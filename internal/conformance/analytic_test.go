package conformance

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

var updateAnalytic = flag.Bool("update", false, "rewrite analytic golden curves with current output")

// analyticMachine is the LRU ByWays geometry the analytic checks run
// on: a 64KB 16-way L3 so short corpus traces produce meaningful
// curves at every way count.
func analyticMachine() machine.Config {
	cfg := machine.NehalemConfig()
	cfg.Cores = 1
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 64 << 10, Ways: 16, LineSize: 64, Policy: cache.LRU}
	cfg.NewPrefetcher = nil
	return cfg
}

// analyticCorpus captures short traces from the suite benchmarks —
// the corpus workloads the analytic error bounds are stated over.
var analyticCorpus = []string{"mcf", "omnetpp", "milc"}

func corpusTrace(t *testing.T, name string, n int) *trace.Trace {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown corpus benchmark %q", name)
	}
	return simulate.CaptureTrace(spec.New, 1, 0, n)
}

// TestCheckAnalyticEquivalence runs the full cross-validation — exact
// degeneration at rate 1.0, stream identity, sampled accuracy, and
// the set-associativity correction against Mattson and the replica
// kernel — on every corpus workload, at the documented bounds.
func TestCheckAnalyticEquivalence(t *testing.T) {
	for _, name := range analyticCorpus {
		t.Run(name, func(t *testing.T) {
			tr := corpusTrace(t, name, 50000)
			cfg := simulate.Config{Machine: analyticMachine(), Workers: 1}
			// MaxDeltaFA covers line-level (cluster) sampling noise on a
			// 50k-record trace at rate 0.1 — a few thousand sampled lines,
			// so ~0.01 standard error with heavy-tailed line weights; 0.05
			// is a ~4-sigma budget. MaxDeltaSetAssoc adds the Poisson
			// correction's model error on top (see AnalyticBounds).
			b := AnalyticBounds{Rate: 0.1, MaxDeltaFA: 0.05, MaxDeltaSetAssoc: 0.10}
			if err := CheckAnalyticEquivalence(cfg, tr, b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAnalyticGoldenCurves pins the rate-1.0 analytic curve CSVs
// against checked-in goldens: the exact-mode analytic output is fully
// deterministic, so any drift is a real behaviour change; a failure
// prints the want and got CSVs. Regenerate after an intentional change
// with:
//
//	go test ./internal/conformance -run AnalyticGolden -update
//
// and review the testdata/analytic/ diff like any other code change.
func TestAnalyticGoldenCurves(t *testing.T) {
	for _, name := range analyticCorpus {
		t.Run(name, func(t *testing.T) {
			tr := corpusTrace(t, name, 50000)
			cfg := simulate.Config{Machine: analyticMachine(), Workers: 1, Engine: simulate.EngineAnalytic}
			curve, err := simulate.Sweep(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			// The rate-1.0 analytic curve must also agree with the exact
			// Mattson pass within the documented model bound before it is
			// allowed to become a golden.
			mattson, err := simulate.Sweep(simulate.Config{Machine: analyticMachine(), Engine: simulate.EngineMattson}, tr)
			if err != nil {
				t.Fatal(err)
			}
			for i := range curve.Points {
				d := curve.Points[i].MissRatio - mattson.Points[i].MissRatio
				if d < -0.10 || d > 0.10 {
					t.Fatalf("size %d: analytic %v vs mattson %v outside model bound",
						curve.Points[i].CacheBytes, curve.Points[i].MissRatio, mattson.Points[i].MissRatio)
				}
			}

			got := report.CurveTable(name+" analytic rate-1.0", curve).CSV()
			path := filepath.Join("testdata", "analytic", name+".csv")
			if *updateAnalytic {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("analytic curve drifted from %s (re-run with -update after reviewing):\n--- want ---\n%s\n--- got ---\n%s",
					path, want, got)
			}
		})
	}
}
