package simulate

import (
	"testing"

	"cachepirate/internal/analysis"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

func smallMachine() machine.Config {
	cfg := machine.NehalemConfig()
	cfg.Cores = 1
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 64 << 10, Ways: 16, LineSize: 64, Policy: cache.Nehalem}
	cfg.NewPrefetcher = nil
	return cfg
}

func randFactory(span int64) func(seed uint64) workload.Generator {
	return func(seed uint64) workload.Generator {
		return workload.NewRandomAccess(workload.RandomConfig{Name: "r", Span: span, NInstr: 2, Seed: seed})
	}
}

func TestCaptureTraceSkips(t *testing.T) {
	seqFactory := func(seed uint64) workload.Generator {
		return workload.NewSequential(workload.SequentialConfig{Name: "s", Span: 1 << 20})
	}
	tr := CaptureTrace(seqFactory, 1, 10, 5)
	if tr.Len() != 5 {
		t.Fatalf("captured %d records", tr.Len())
	}
	if tr.Records[0].Addr != 10*64 {
		t.Errorf("skip not applied: first addr %d", tr.Records[0].Addr)
	}
}

func TestSweepFetchRatioMonotoneForRandom(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 40000)
	var sizes []int64
	for s := int64(16 << 10); s <= 64<<10; s += 16 << 10 {
		sizes = append(sizes, s)
	}
	curve, err := Sweep(Config{Machine: smallMachine(), Sizes: sizes, Mode: ByWays}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 4 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	// Random access over the full span: fetch ratio must fall as the
	// cache grows.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].FetchRatio > curve.Points[i-1].FetchRatio+0.01 {
			t.Errorf("fetch ratio rose with cache: %g -> %g",
				curve.Points[i-1].FetchRatio, curve.Points[i].FetchRatio)
		}
	}
	if curve.Points[0].FetchRatio < 0.05 {
		t.Errorf("smallest cache fetch ratio suspiciously low: %g", curve.Points[0].FetchRatio)
	}
}

func TestSweepByWaysRejectsPartialWays(t *testing.T) {
	tr := CaptureTrace(randFactory(32<<10), 1, 0, 1000)
	_, err := Sweep(Config{Machine: smallMachine(), Sizes: []int64{5000}, Mode: ByWays}, tr)
	if err == nil {
		t.Error("non-way-aligned size accepted in ByWays mode")
	}
}

func TestSweepBySetsWorks(t *testing.T) {
	tr := CaptureTrace(randFactory(32<<10), 1, 0, 20000)
	curve, err := Sweep(Config{Machine: smallMachine(), Sizes: []int64{16 << 10, 32 << 10}, Mode: BySets}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 2 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	if curve.Points[0].FetchRatio < curve.Points[1].FetchRatio {
		// Smaller cache must not fetch less.
		t.Errorf("BySets sweep inverted: %g < %g",
			curve.Points[0].FetchRatio, curve.Points[1].FetchRatio)
	}
}

func TestSweepEmptyTrace(t *testing.T) {
	if _, err := Sweep(Config{Machine: smallMachine()}, &trace.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestParseNamesRoundTrip: ParseEngine, ParseMode and cache.ParsePolicy
// invert the String methods on every value and reject unknown names —
// the one name table cmd/cachesim and the curve server both parse with.
func TestParseNamesRoundTrip(t *testing.T) {
	for _, e := range []Engine{EngineFused, EnginePerSize, EngineMattson, EngineAnalytic} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
	}
	for _, m := range []SweepMode{ByWays, BySets} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, p := range []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random} {
		if got, err := cache.ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"", "auto", "Fused", "engine(9)"} {
		if _, err := ParseEngine(name); err == nil {
			t.Errorf("ParseEngine(%q) accepted", name)
		}
	}
	for _, name := range []string{"", "diag", "Ways", "mode(2)"} {
		if _, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) accepted", name)
		}
	}
	for _, name := range []string{"", "fifo", "LRU", "policy(4)"} {
		if _, err := cache.ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		}
	}
}

// TestSweepUnknownEngine: an Engine value outside the enum is an error,
// not a silent fallback to the fused engine.
func TestSweepUnknownEngine(t *testing.T) {
	tr := CaptureTrace(randFactory(32<<10), 1, 0, 100)
	if _, err := Sweep(Config{Machine: smallMachine(), Engine: Engine(9)}, tr); err == nil {
		t.Error("Engine(9) accepted")
	}
}

func TestSweepDefaultSizesAreWays(t *testing.T) {
	cfg := Config{Machine: smallMachine()}.withDefaults()
	if len(cfg.Sizes) != 16 {
		t.Fatalf("default sizes = %d, want one per way", len(cfg.Sizes))
	}
	if cfg.Sizes[0] != 4<<10 || cfg.Sizes[15] != 64<<10 {
		t.Errorf("default size range wrong: %d..%d", cfg.Sizes[0], cfg.Sizes[15])
	}
}

// TestSweepLRUvsNehalemSequential reproduces the Fig. 4(b)/(c)
// divergence: a sequential scan slightly larger than the cache
// thrashes a true-LRU cache (fetch ratio ~ 1 per line) but the
// Nehalem accessed-bit policy retains part of the set.
func TestSweepLRUvsNehalemSequential(t *testing.T) {
	seqFactory := func(seed uint64) workload.Generator {
		// 96KB scan vs 64KB L3: over-capacity cyclic sweep.
		return workload.NewSequential(workload.SequentialConfig{Name: "s", Span: 96 << 10, Elem: 64})
	}
	tr := CaptureTrace(seqFactory, 1, 0, 30000)
	sizes := []int64{64 << 10}

	lruCfg := Config{Machine: machine.WithL3Policy(smallMachine(), cache.LRU), Sizes: sizes}
	nehCfg := Config{Machine: smallMachine(), Sizes: sizes}
	lru, err := Sweep(lruCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	neh, err := Sweep(nehCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	lruFR, nehFR := lru.Points[0].FetchRatio, neh.Points[0].FetchRatio
	if nehFR >= lruFR {
		t.Errorf("Nehalem policy should beat LRU on over-capacity scans: LRU=%g Nehalem=%g", lruFR, nehFR)
	}
	if lruFR < 0.9 {
		t.Errorf("LRU should thrash (fetch ratio ~1 per access), got %g", lruFR)
	}
}

// TestSweepLRUvsNehalemRandomIdentical reproduces Fig. 4(a): for
// random accesses the two policies produce nearly identical results.
func TestSweepLRUvsNehalemRandomIdentical(t *testing.T) {
	tr := CaptureTrace(randFactory(96<<10), 1, 0, 30000)
	sizes := []int64{32 << 10, 64 << 10}
	lru, err := Sweep(Config{Machine: machine.WithL3Policy(smallMachine(), cache.LRU), Sizes: sizes}, tr)
	if err != nil {
		t.Fatal(err)
	}
	neh, err := Sweep(Config{Machine: smallMachine(), Sizes: sizes}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		d := lru.Points[i].FetchRatio - neh.Points[i].FetchRatio
		if d < 0 {
			d = -d
		}
		if d > 0.05 {
			t.Errorf("random-access policies diverge at %d: LRU=%g Nehalem=%g",
				sizes[i], lru.Points[i].FetchRatio, neh.Points[i].FetchRatio)
		}
	}
}

// analysisCurve builds a small fetch-ratio curve for calibration tests.
func analysisCurve() *analysis.Curve {
	return &analysis.Curve{Name: "c", Points: []analysis.Point{
		{CacheBytes: 1 << 10, FetchRatio: 0.20, Trusted: true},
		{CacheBytes: 2 << 10, FetchRatio: 0.10, Trusted: true},
		{CacheBytes: 4 << 10, FetchRatio: 0.05, Trusted: true},
	}}
}

func TestCalibrate(t *testing.T) {
	curve := analysisCurve()
	Calibrate(curve, 0.10)
	last := curve.Points[len(curve.Points)-1]
	if last.FetchRatio != 0.10 {
		t.Errorf("calibrated baseline = %g, want 0.10", last.FetchRatio)
	}
	// The whole curve shifted by the same offset.
	if curve.Points[0].FetchRatio != 0.25 {
		t.Errorf("first point = %g, want 0.25", curve.Points[0].FetchRatio)
	}
}

func TestCalibrateClampsNegative(t *testing.T) {
	curve := analysisCurve()
	Calibrate(curve, 0 /* force negative offsets */)
	for _, p := range curve.Points {
		if p.FetchRatio < 0 {
			t.Errorf("negative fetch ratio after calibration: %g", p.FetchRatio)
		}
	}
}

func TestCalibrateEmpty(t *testing.T) {
	c := Calibrate(&analysis.Curve{}, 0.5)
	if len(c.Points) != 0 {
		t.Error("empty calibration grew points")
	}
}
