package core

import (
	"strings"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// testMachine is a scaled-down system for fast tests: 64KB/16-way L3.
func testMachine(cores int) machine.Config {
	cfg := machine.NehalemConfig()
	cfg.Cores = cores
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 64 << 10, Ways: 16, LineSize: 64, Policy: cache.Nehalem}
	cfg.NewPrefetcher = nil
	return cfg
}

// testConfig scales the profiling parameters down with the machine.
func testConfig(cores int) Config {
	var sizes []int64
	for s := int64(8 << 10); s <= 64<<10; s += 8 << 10 {
		sizes = append(sizes, s)
	}
	return Config{
		Machine:            testMachine(cores),
		Sizes:              sizes,
		IntervalInstrs:     20_000,
		Cycles:             2,
		TargetWarmupInstrs: 10_000,
		Seed:               1,
	}
}

func randTarget(span int64) GenFactory {
	return func(seed uint64) workload.Generator {
		return workload.NewRandomAccess(workload.RandomConfig{
			Name: "target", Span: span, NInstr: 3, MLP: 2, Seed: seed})
	}
}

// mustNotBuild is a factory that fails the test when called: a config
// that must be rejected got as far as building its Target.
func mustNotBuild(t *testing.T) GenFactory {
	return func(uint64) workload.Generator {
		t.Error("generator built for a config that must be rejected")
		return randTarget(32 << 10)(1)
	}
}

func TestScannerStrideAndWrap(t *testing.T) {
	s := NewScanner(0)
	s.SetSpan(256)
	want := []uint64{0, 64, 128, 192, 0}
	for i, w := range want {
		op := s.Next()
		if op.Addr != w {
			t.Fatalf("addr[%d] = %d, want %d", i, op.Addr, w)
		}
		if op.NInstr != 0 || op.Write {
			t.Fatalf("pirate op should be a pure read: %+v", op)
		}
	}
}

func TestScannerSetSpanClampsCursor(t *testing.T) {
	s := NewScanner(0)
	s.SetSpan(1024)
	for i := 0; i < 10; i++ {
		s.Next()
	}
	s.SetSpan(256)
	if a := s.Next().Addr; a >= 256 {
		t.Errorf("cursor outside shrunken span: %d", a)
	}
	s.SetSpan(-5)
	if s.Span() != 0 {
		t.Error("negative span should clamp to zero")
	}
	s.SetSpan(100) // rounds down to one line
	if s.Span() != 64 {
		t.Errorf("span rounding: %d, want 64", s.Span())
	}
}

func TestScannerZeroSpanStaysPut(t *testing.T) {
	s := NewScanner(4096)
	if a := s.Next().Addr; a != 4096 {
		t.Errorf("zero-span access at %d", a)
	}
}

func TestPirateSetWSSDistribution(t *testing.T) {
	m := machine.MustNew(testMachine(4))
	p, err := NewPirate(m, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetWSS(48<<10, 3); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range p.scanners {
		if s.Span() == 0 {
			t.Error("active thread got zero span")
		}
		total += s.Span()
	}
	if total != 48<<10 {
		t.Errorf("distributed %d bytes, want %d", total, 48<<10)
	}
	// Two threads: third scanner must be suspended with zero span.
	if err := p.SetWSS(32<<10, 2); err != nil {
		t.Fatal(err)
	}
	if p.scanners[2].Span() != 0 || !m.Suspended(3) {
		t.Error("unused thread not suspended")
	}
	// Zero WSS suspends everyone.
	if err := p.SetWSS(0, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range p.cores {
		if !m.Suspended(c) {
			t.Errorf("core %d still running with zero WSS", c)
		}
	}
}

func TestPirateSetWSSValidation(t *testing.T) {
	m := machine.MustNew(testMachine(2))
	p, _ := NewPirate(m, []int{1})
	if err := p.SetWSS(1024, 2); err == nil {
		t.Error("too many threads accepted")
	}
	if err := p.SetWSS(-1, 1); err == nil {
		t.Error("negative WSS accepted")
	}
	if _, err := NewPirate(m, nil); err == nil {
		t.Error("pirate with no cores accepted")
	}
}

func TestPirateWarmMakesWorkingSetResident(t *testing.T) {
	m := machine.MustNew(testMachine(2))
	p, _ := NewPirate(m, []int{1})
	const wss = 32 << 10
	if err := p.SetWSS(wss, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(2); err != nil {
		t.Fatal(err)
	}
	// After warming alone, the pirate's span is L3-resident.
	resident := m.Hierarchy().L3().ResidentBytes(1)
	if resident < wss*9/10 {
		t.Errorf("pirate resident bytes = %d, want ~%d", resident, wss)
	}
	// And a further solo sweep fetches nothing: fetch ratio ~ 0.
	before := m.ReadCounters(1)
	if err := m.RunInstructions(1, wss/64*2); err != nil {
		t.Fatal(err)
	}
	iv := m.ReadCounters(1).Sub(before)
	if fr := iv.FetchRatio(); fr > 0.01 {
		t.Errorf("warmed pirate fetch ratio = %g, want ~0", fr)
	}
}

func TestPirateReducesTargetCache(t *testing.T) {
	// The paper's core claim at model scale: with the pirate holding
	// half the L3, a target whose span equals the full L3 must miss
	// far more than alone.
	missWith := func(pirateWSS int64) float64 {
		m := machine.MustNew(testMachine(2))
		m.MustAttach(0, randTarget(64<<10)(1))
		p, _ := NewPirate(m, []int{1})
		if err := p.SetWSS(pirateWSS, 1); err != nil {
			t.Fatal(err)
		}
		if pirateWSS > 0 {
			if err := p.Warm(2); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.RunInstructions(0, 60_000); err != nil {
			t.Fatal(err)
		}
		return m.ReadCounters(0).MissRatio()
	}
	alone, pirated := missWith(0), missWith(32<<10)
	if pirated <= alone*1.3 {
		t.Errorf("pirate did not reduce target cache: alone=%g pirated=%g", alone, pirated)
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Machine.Cores != 4 {
		t.Errorf("default machine cores = %d", cfg.Machine.Cores)
	}
	if len(cfg.PirateCores) != 3 {
		t.Errorf("default pirate cores = %v", cfg.PirateCores)
	}
	if len(cfg.Sizes) != 16 {
		t.Errorf("default sizes = %d, want 16 (0.5MB steps to 8MB)", len(cfg.Sizes))
	}
	if cfg.FetchThreshold != 0.03 || cfg.SlowdownThreshold != 0.01 {
		t.Errorf("default thresholds: %g %g", cfg.FetchThreshold, cfg.SlowdownThreshold)
	}
	if err := cfg.validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}

	bad := cfg
	bad.TargetCore = 1 // collides with pirate core 1
	if err := bad.validate(); err == nil {
		t.Error("target/pirate collision accepted")
	}
	bad = cfg
	bad.Sizes = []int64{cfg.Machine.L3.Size * 2}
	if err := bad.validate(); err == nil {
		t.Error("oversized target cache accepted")
	}

	// Values no run can use must fail validation — and with it every
	// entry point, before a machine is built — not surface after the
	// Target warm-up (Threads) or as a curve of NaN points (Cycles).
	for _, tc := range []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"threads = pirate cores", func(c *Config) { c.Threads = 3 }, true},
		{"threads > pirate cores", func(c *Config) { c.Threads = 9 }, false},
		{"threads > listed pirate cores", func(c *Config) { c.PirateCores = []int{2}; c.Threads = 2 }, false},
		{"negative threads", func(c *Config) { c.Threads = -1 }, false},
		{"negative max threads", func(c *Config) { c.MaxThreads = -1 }, false},
		{"negative cycles", func(c *Config) { c.Cycles = -1 }, false},
		// A count past MaxInstrs could wrap a core's instruction counter
		// once an experiment multiplies it.
		{"interval at the bound", func(c *Config) { c.IntervalInstrs = MaxInstrs }, true},
		{"interval past the bound", func(c *Config) { c.IntervalInstrs = MaxInstrs + 1 }, false},
		{"warm-up past the bound", func(c *Config) { c.TargetWarmupInstrs = MaxInstrs + 1 }, false},
		{"attach point past the bound", func(c *Config) { c.AttachInstr = MaxInstrs + 1 }, false},
	} {
		c := Config{}
		tc.set(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
	factory := mustNotBuild(t)
	for _, c := range []Config{{Threads: 9}, {Cycles: -1}} {
		c.Machine = testMachine(4)
		if curve, _, err := Profile(c, factory); err == nil {
			t.Errorf("Profile(%+v) returned a curve (%d points), want an error", c, len(curve.Points))
		}
		if _, err := ProfileFixed(c, factory, 32<<10, 1); err == nil {
			t.Errorf("ProfileFixed accepted Threads %d Cycles %d", c.Threads, c.Cycles)
		}
	}
}

func TestDetermineThreads(t *testing.T) {
	cfg := testConfig(4)
	threads, cpis, err := DetermineThreads(cfg, randTarget(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if threads < 1 || threads > 3 {
		t.Fatalf("threads = %d", threads)
	}
	if len(cpis) < 1 || cpis[0] <= 0 {
		t.Fatalf("thread-test CPIs = %v", cpis)
	}
}

func TestProfileCurveShape(t *testing.T) {
	cfg := testConfig(2)
	// Target: random access over the whole L3. Less cache => more
	// misses => higher fetch ratio and CPI.
	curve, rep, err := Profile(cfg, randTarget(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThreadsUsed < 1 {
		t.Errorf("report threads = %d", rep.ThreadsUsed)
	}
	if len(curve.Points) != len(cfg.Sizes) {
		t.Fatalf("curve has %d points, want %d", len(curve.Points), len(cfg.Sizes))
	}
	small := curve.Points[0]                   // 8KB available
	large := curve.Points[len(curve.Points)-1] // full 64KB
	if small.FetchRatio <= large.FetchRatio {
		t.Errorf("fetch ratio not decreasing with cache: %g (small) vs %g (large)",
			small.FetchRatio, large.FetchRatio)
	}
	if small.CPI <= large.CPI {
		t.Errorf("CPI not decreasing with cache: %g vs %g", small.CPI, large.CPI)
	}
	for _, p := range curve.Points {
		if p.Samples != cfg.Cycles {
			t.Errorf("size %d averaged %d samples, want %d", p.CacheBytes, p.Samples, cfg.Cycles)
		}
	}
	// The full-cache point has no pirate: trivially trusted.
	if !large.Trusted || large.PirateFetchRatio != 0 {
		t.Errorf("full-cache point: trusted=%v pirateFR=%g", large.Trusted, large.PirateFetchRatio)
	}
}

func TestProfileDeterministic(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threads = 1
	a, _, err := Profile(cfg, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Profile(cfg, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("profile not deterministic at point %d:\n%+v\n%+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestProfileFixedMatchesDynamic(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threads = 1
	dyn, _, err := Profile(cfg, randTarget(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	const size = 32 << 10
	fixed, err := ProfileFixed(cfg, randTarget(64<<10), size, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dyn.Points {
		if p.CacheBytes != size {
			continue
		}
		rel := (p.CPI - fixed.CPI) / fixed.CPI
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.15 {
			t.Errorf("dynamic CPI %g deviates %g%% from fixed %g at 32KB",
				p.CPI, rel*100, fixed.CPI)
		}
		return
	}
	t.Fatal("32KB point missing from dynamic curve")
}

func TestProfileFixedCurveSorted(t *testing.T) {
	cfg := testConfig(2)
	cfg.Sizes = []int64{16 << 10, 48 << 10, 32 << 10}
	curve, err := ProfileFixedCurve(cfg, randTarget(64<<10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 3 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	for i := 1; i < 3; i++ {
		if curve.Points[i].CacheBytes <= curve.Points[i-1].CacheBytes {
			t.Error("fixed curve not sorted")
		}
	}
}

// TestEmptySizeGridRejected pins that an L3 under the default grid's
// 512 KB step, with no Sizes given, is an error naming the L3 size and
// the step at every entry point that measures the grid, before any
// machine is built: Profile used to return an empty curve and a nil
// error. The entry points that measure no grid keep working.
func TestEmptySizeGridRejected(t *testing.T) {
	cfg := testConfig(4)
	cfg.Sizes = nil
	cfg.Threads = 1
	factory := mustNotBuild(t)
	ranks := func(uint64) ([]workload.Generator, error) {
		t.Error("ranks built for a config that must be rejected")
		return nil, nil
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Profile", func() error { _, _, err := Profile(cfg, factory); return err }},
		{"Timeline", func() error { _, _, err := ProfileTimeline(cfg, factory); return err }},
		{"Multi", func() error { _, _, err := ProfileMulti(cfg, []int{0, 1}, factory); return err }},
		{"Parallel", func() error { _, _, err := ProfileParallel(cfg, []int{0, 1}, ranks); return err }},
		{"Overhead", func() error { _, _, _, err := MeasureOverhead(cfg, factory); return err }},
		{"FixedCurve", func() error { _, err := ProfileFixedCurve(cfg, factory, 1); return err }},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "L3 of 65536 bytes") || !strings.Contains(err.Error(), "512 KB step") {
			t.Errorf("%s: err = %v, want one naming the 65536-byte L3 and the 512 KB step", tc.name, err)
		}
	}

	if _, _, err := DetermineThreads(cfg, randTarget(32<<10)); err != nil {
		t.Errorf("DetermineThreads: %v", err)
	}
	if _, err := MaxStealable(cfg, randTarget(32<<10), 1); err != nil {
		t.Errorf("MaxStealable: %v", err)
	}
	if _, err := ProfileFixed(cfg, randTarget(32<<10), 32<<10, 1); err != nil {
		t.Errorf("ProfileFixed: %v", err)
	}
}

func TestProfileFixedValidatesSize(t *testing.T) {
	cfg := testConfig(2)
	if _, err := ProfileFixed(cfg, randTarget(1024), 0, 1); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := ProfileFixed(cfg, randTarget(1024), 1<<30, 1); err == nil {
		t.Error("size beyond L3 accepted")
	}
}

func TestMaxStealableAgainstGentleTarget(t *testing.T) {
	cfg := testConfig(2)
	// A compute-bound target barely touches L3: the pirate should
	// steal most of the cache.
	gentle := func(seed uint64) workload.Generator {
		return workload.NewComputeBound("gentle", 512, 20)
	}
	res, err := MaxStealable(cfg, gentle, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProbedWSS) == 0 {
		t.Fatal("no probes recorded")
	}
	if res.MaxWSS < 32<<10 {
		t.Errorf("pirate stole only %d bytes from a compute-bound target", res.MaxWSS)
	}
}

func TestTargetSlowdownNonNegativeForHungryTarget(t *testing.T) {
	cfg := testConfig(3)
	sd, err := TargetSlowdown(cfg, randTarget(64<<10), 16<<10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sd < -0.25 || sd > 5 {
		t.Errorf("implausible slowdown %g", sd)
	}
}

func TestMeasureOverhead(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threads = 1
	cfg.Cycles = 1
	_, rep, ov, err := MeasureOverhead(cfg, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}
	if ov.TargetInstructions != rep.TargetInstructions {
		t.Error("overhead instruction count mismatch")
	}
	if ov.AloneCycles <= 0 || ov.ProfiledCycles <= 0 {
		t.Fatalf("degenerate overhead: %+v", ov)
	}
	if ov.Overhead() < 0 {
		t.Errorf("profiled run faster than alone: %g", ov.Overhead())
	}
	if ov.Overhead() > 3 {
		t.Errorf("overhead %g implausibly high even for the scaled model", ov.Overhead())
	}
}
