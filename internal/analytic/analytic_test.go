package analytic

import (
	"math"
	"testing"

	"cachepirate/internal/stackdist"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

func captureLines(gen workload.Generator, n int) *trace.Trace {
	tr := &trace.Trace{Records: make([]trace.Record, 0, n)}
	for i := 0; i < n; i++ {
		op := gen.Next()
		tr.Records = append(tr.Records, trace.Record{Addr: op.Addr, NInstr: 1, Write: op.Write})
	}
	return tr
}

func mixTrace(n int) *trace.Trace {
	return captureLines(workload.NewMix("m", 3,
		workload.Component{Gen: workload.NewHotCold(workload.HotColdConfig{Name: "hc", Span: 48 << 10, Skew: 0.2, Seed: 11}), Weight: 0.7},
		workload.Component{Gen: workload.NewSequential(workload.SequentialConfig{Name: "s", Span: 96 << 10, Elem: 64}), Weight: 0.3},
	), n)
}

// TestProfileThresholdExactAtRateOne: at rate 1.0 the profile's
// threshold model is the exact stack-distance model — miss ratios
// match stackdist.Analyze bit for bit at every size.
func TestProfileThresholdExactAtRateOne(t *testing.T) {
	tr := mixTrace(40000)
	pr, err := ProfileSource(trace.NewReplayer(tr, false), stackdist.SampledConfig{Rate: 1, MaxDistance: 4096})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := stackdist.Analyze(tr, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{1 << 10, 16 << 10, 64 << 10, 256 << 10} {
		want := exact.MissRatio(size / 64)
		got := pr.MissRatio(size)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("size %d: analytic %v != exact %v", size, got, want)
		}
	}
}

// TestProfileSourceMatchesTrace: the streamed and in-memory profiling
// paths produce identical estimates.
func TestProfileSourceMatchesTrace(t *testing.T) {
	tr := mixTrace(20000)
	cfg := stackdist.SampledConfig{Rate: 0.25, MaxDistance: 2048, Seed: 3}
	a, err := ProfileSource(trace.NewReplayer(tr, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileSource(trace.NewReplayer(tr, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{4 << 10, 32 << 10, 128 << 10} {
		if math.Float64bits(a.MissRatio(size)) != math.Float64bits(b.MissRatio(size)) {
			t.Errorf("size %d: in-memory %v != streamed %v", size, a.MissRatio(size), b.MissRatio(size))
		}
	}
}

// TestSetAssocCorrection: the Poisson-corrected threshold model must
// land near the exact per-set Mattson miss ratio on a real geometry.
func TestSetAssocCorrection(t *testing.T) {
	const (
		sets    = 64
		maxWays = 16
	)
	tr := mixTrace(60000)
	sa, err := stackdist.NewSetAssocProfiler(sets, maxWays, 6)
	if err != nil {
		t.Fatal(err)
	}
	sa.Feed(tr.Records)
	exact := sa.Histogram()
	pr, err := ProfileSource(trace.NewReplayer(tr, false), stackdist.SampledConfig{Rate: 1, MaxDistance: sets * maxWays * 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ways := range []int{2, 4, 8, 16} {
		want, err := exact.MissRatio(ways)
		if err != nil {
			t.Fatal(err)
		}
		got := pr.MissRatioSetAssoc(sets, ways)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("%d ways: corrected %v vs exact %v (|Δ| > 0.03)", ways, got, want)
		}
	}
}

// TestPoissonCDF checks the recurrence against direct evaluation.
func TestPoissonCDF(t *testing.T) {
	if got := poissonCDF(0, 3); got != 1 {
		t.Errorf("lambda 0: %v, want 1", got)
	}
	if got := poissonCDF(2, -1); got != 0 {
		t.Errorf("k=-1: %v, want 0", got)
	}
	// P[Poisson(1.5) <= 2] = e^-1.5 (1 + 1.5 + 1.125)
	want := math.Exp(-1.5) * (1 + 1.5 + 1.125)
	if got := poissonCDF(1.5, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("P[Pois(1.5)<=2] = %v, want %v", got, want)
	}
	// Large lambda with small k underflows gracefully toward 0.
	if got := poissonCDF(700, 1); got < 0 || got > 1e-100 {
		t.Errorf("deep-tail CDF %v", got)
	}
}

// TestEstimateShape: curve estimates carry one point per grid entry,
// monotone sizes, error bars in [0, 1], and the sampling metadata.
func TestEstimateShape(t *testing.T) {
	tr := mixTrace(30000)
	pr, err := ProfileSource(trace.NewReplayer(tr, false), stackdist.SampledConfig{Rate: 0.5, MaxDistance: 4096, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	grid := []Geometry{
		{CacheBytes: 8 << 10},
		{CacheBytes: 32 << 10, Sets: 64, Ways: 8},
		{CacheBytes: 128 << 10},
	}
	est, err := pr.Estimate(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Points) != len(grid) {
		t.Fatalf("estimate shape: %+v", est)
	}
	if est.Records != 30000 || est.Sampled == 0 || est.Rate <= 0 {
		t.Fatalf("metadata: %+v", est)
	}
	for i, p := range est.Points {
		if p.CacheBytes != grid[i].CacheBytes {
			t.Errorf("point %d size %d, want %d", i, p.CacheBytes, grid[i].CacheBytes)
		}
		if p.MissRatio < 0 || p.MissRatio > 1 || p.StdErr < 0 || p.StdErr > 1 {
			t.Errorf("point %d out of range: %+v", i, p)
		}
	}
	curve := est.Curve()
	if curve.Name != "analytic" || len(curve.Points) != len(grid) {
		t.Fatalf("curve shape: %+v", curve)
	}
	for i, p := range curve.Points {
		if p.CacheBytes != est.Points[i].CacheBytes || p.MissRatio != est.Points[i].MissRatio || p.FetchRatio != p.MissRatio {
			t.Errorf("curve point %d = %+v, estimate %+v", i, p, est.Points[i])
		}
	}

	if _, err := pr.Estimate(nil); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := pr.Estimate([]Geometry{{CacheBytes: 0}}); err == nil {
		t.Error("zero size accepted")
	}
}

// TestFootprintWorkingSet: the summary statistics behave on a known
// workload — sequential over 96KB + hot/cold over 48KB gives a
// footprint near 112KB (the union includes the overlapping low 48KB
// once... spans are independent address spaces, so the footprint is
// bounded by the sum) and a positive working set.
func TestFootprintWorkingSet(t *testing.T) {
	tr := mixTrace(60000)
	pr, err := ProfileSource(trace.NewReplayer(tr, false), stackdist.SampledConfig{Rate: 1, MaxDistance: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fp := pr.Footprint()
	if fp <= 0 || fp > 160<<10 {
		t.Errorf("footprint %v bytes out of plausible range", fp)
	}
	ws, err := pr.WorkingSet(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ws <= 0 || ws > fp+64 {
		t.Errorf("P90 working set %v vs footprint %v", ws, fp)
	}
}
