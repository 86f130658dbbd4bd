package simulate

import (
	"context"
	"math"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/trace"
)

// lruSweepConfig is the acceptance geometry: the small 16-way LRU L3,
// one size per way.
func lruSweepConfig(engine Engine) Config {
	mcfg := smallMachine()
	mcfg.L3.Policy = cache.LRU
	return Config{Machine: mcfg, Workers: 1, Engine: engine}
}

// replayer opens tr in memory, once per call.
func replayer(tr *trace.Trace) func() (trace.BlockSource, error) {
	return func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
}

// sameMissCurve fails unless got has want's name, sizes and miss and
// fetch ratios, bit for bit — all the single-pass engines produce.
func sameMissCurve(t *testing.T, what string, got, want *analysis.Curve) {
	t.Helper()
	if got.Name != want.Name || len(got.Points) != len(want.Points) {
		t.Fatalf("%s: curve %q with %d points, want %q with %d", what, got.Name, len(got.Points), want.Name, len(want.Points))
	}
	for i, w := range want.Points {
		g := got.Points[i]
		if g.CacheBytes != w.CacheBytes ||
			math.Float64bits(g.MissRatio) != math.Float64bits(w.MissRatio) ||
			math.Float64bits(g.FetchRatio) != math.Float64bits(w.FetchRatio) {
			t.Errorf("%s: point %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestMattsonStreamMatchesInMemory: the streamed Mattson pass is the
// same pass — bit-identical curve — and the MattsonLRUCurve wrappers
// are the EngineMattson dispatch whatever engine their config names.
func TestMattsonStreamMatchesInMemory(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 40000)
	want, err := Sweep(lruSweepConfig(EngineMattson), tr)
	if err != nil {
		t.Fatal(err)
	}
	if want.Name != "mattson" {
		t.Fatalf("EngineMattson curve named %q", want.Name)
	}
	got, err := SweepStream(lruSweepConfig(EngineMattson), replayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameMissCurve(t, "streamed", got, want)
	wrapped, err := MattsonLRUCurve(lruSweepConfig(EngineFused), tr)
	if err != nil {
		t.Fatal(err)
	}
	sameMissCurve(t, "MattsonLRUCurve", wrapped, want)
	wrapped, err = MattsonLRUCurveStream(lruSweepConfig(EngineFused), replayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameMissCurve(t, "MattsonLRUCurveStream", wrapped, want)
}

// TestAnalyticCurveTracksMattson: at rate 1.0 the analytic engine runs
// the exact FA histogram through the Poisson set-associativity
// correction; its curve must track the exact Mattson curve within the
// documented approximation bound on the acceptance geometry. The
// workload's footprint (96KB) deliberately exceeds the largest swept
// cache: when a balanced-mapping working set exactly fits the cache,
// the Poisson argument (which assumes random set assignment) predicts
// conflict misses that a perfectly spread mapping never takes — the
// documented worst case of the correction, exercised separately in
// conformance with a wider bound.
func TestAnalyticCurveTracksMattson(t *testing.T) {
	tr := CaptureTrace(randFactory(96<<10), 1, 0, 60000)
	exact, err := Sweep(lruSweepConfig(EngineMattson), tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(lruSweepConfig(EngineAnalytic), tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "analytic" || len(got.Points) != len(exact.Points) {
		t.Fatalf("curve shape: name %q, %d points (want %d)", got.Name, len(got.Points), len(exact.Points))
	}
	for i := range exact.Points {
		d := math.Abs(got.Points[i].MissRatio - exact.Points[i].MissRatio)
		if d > 0.05 {
			t.Errorf("size %d: analytic %v vs mattson %v (|Δ| %v > 0.05)",
				exact.Points[i].CacheBytes, got.Points[i].MissRatio, exact.Points[i].MissRatio, d)
		}
	}
}

// TestSweepDispatchesAnalytic: EngineAnalytic through the ordinary
// Sweep entry point, in-memory and streamed, the AnalyticCurveStream
// wrapper and AnalyticEstimate's Curve all agree bit for bit.
func TestSweepDispatchesAnalytic(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 30000)
	cfg := lruSweepConfig(EngineAnalytic)
	cfg.SampleRate = 0.5
	inmem, err := Sweep(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if inmem.Name != "analytic" {
		t.Fatalf("sweep with EngineAnalytic produced curve %q", inmem.Name)
	}
	streamed, err := SweepStream(cfg, replayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameMissCurve(t, "streamed", streamed, inmem)
	fused := cfg
	fused.Engine = EngineFused
	wrapped, err := AnalyticCurveStream(fused, replayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameMissCurve(t, "AnalyticCurveStream", wrapped, inmem)
	est, err := AnalyticEstimate(context.Background(), cfg, replayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameMissCurve(t, "AnalyticEstimate", est.Curve(), inmem)
}

// TestAnalyticEstimateMetadata: the estimate form carries the sampling
// metadata and error bars the Curve shape drops.
func TestAnalyticEstimateMetadata(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 30000)
	cfg := lruSweepConfig(EngineAnalytic)
	cfg.SampleSize = 200
	est, err := AnalyticEstimate(context.Background(), cfg, replayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if est.Records != 30000 {
		t.Errorf("records %d", est.Records)
	}
	if est.Rate <= 0 || est.Rate > 1 {
		t.Errorf("rate %v", est.Rate)
	}
	if len(est.Points) != 16 {
		t.Errorf("%d points, want 16 (one per way)", len(est.Points))
	}
	for _, p := range est.Points {
		if p.StdErr <= 0 || p.StdErr > 0.5 {
			t.Errorf("size %d: stderr %v implausible", p.CacheBytes, p.StdErr)
		}
	}
}

// TestAnalyticEmptyTrace: empty inputs error like every other engine.
func TestAnalyticEmptyTrace(t *testing.T) {
	cfg := lruSweepConfig(EngineAnalytic)
	if _, err := Sweep(cfg, &trace.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := SweepStream(cfg, replayer(&trace.Trace{})); err == nil {
		t.Error("empty stream accepted")
	}
}
