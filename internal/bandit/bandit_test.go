package bandit

import (
	"strings"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

func testMachine(cores int) machine.Config {
	cfg := machine.NehalemConfig()
	cfg.Cores = cores
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 64 << 10, Ways: 16, LineSize: 64, Policy: cache.Nehalem}
	cfg.NewPrefetcher = nil
	return cfg
}

func streamTarget(seed uint64) workload.Generator {
	// A bandwidth-hungry target: streams beyond the L3.
	return workload.NewSequential(workload.SequentialConfig{
		Name: "target", Span: 1 << 20, Elem: 64, NInstr: 2, MLP: 6})
}

func computeTarget(seed uint64) workload.Generator {
	return workload.NewComputeBound("quiet", 512, 20)
}

func TestStreamerPacing(t *testing.T) {
	s := NewStreamer(0, 4096)
	if op := s.Next(); op.NInstr != 0 {
		t.Errorf("default pace = %d", op.NInstr)
	}
	s.SetPace(7)
	if op := s.Next(); op.NInstr != 7 {
		t.Errorf("paced op NInstr = %d", op.NInstr)
	}
}

func TestStreamerWrapsAndDefaultSpan(t *testing.T) {
	s := NewStreamer(100, 128)
	a1, a2, a3 := s.Next().Addr, s.Next().Addr, s.Next().Addr
	if a1 != 100 || a2 != 164 || a3 != 100 {
		t.Errorf("addresses %d %d %d", a1, a2, a3)
	}
	d := NewStreamer(0, 0)
	if d.WorkingSet() != 512<<20 {
		t.Errorf("default span = %d", d.WorkingSet())
	}
	if d.MLP() < 4 {
		t.Errorf("bandit MLP = %g", d.MLP())
	}
	d.Reset(0)
	if d.Next().Addr != 0 {
		t.Error("reset did not rewind")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{Machine: testMachine(1)}.withDefaults()
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "no core for a bandit thread") {
		t.Errorf("one-core machine: %v, want no core for a bandit thread", err)
	}
	def := Config{}.withDefaults()
	if err := def.validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if def.Machine.Cores != 4 || len(def.Paces) == 0 {
		t.Errorf("defaults wrong: %+v", def)
	}
}

func TestProfileBandwidthSensitiveTarget(t *testing.T) {
	cfg := Config{
		Machine:        testMachine(3),
		Paces:          []uint32{0, 8, 64},
		IntervalInstrs: 30_000,
		WarmupInstrs:   15_000,
	}
	curve, err := Profile(cfg, streamTarget)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 4 { // baseline + 3 paces
		t.Fatalf("points = %d", len(curve.Points))
	}
	// Points sorted by available bandwidth ascending.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].AvailableGBs < curve.Points[i-1].AvailableGBs {
			t.Fatal("points not sorted by available bandwidth")
		}
	}
	least := curve.Points[0]                  // most bandit pressure
	most := curve.Points[len(curve.Points)-1] // baseline
	if least.BanditGBs <= 0 {
		t.Error("bandit consumed no bandwidth at full pressure")
	}
	if most.BanditGBs != 0 {
		t.Errorf("baseline point has bandit bandwidth %g", most.BanditGBs)
	}
	// A streaming target must slow down when bandwidth is stolen.
	if least.TargetCPI <= most.TargetCPI*1.05 {
		t.Errorf("bandwidth-hungry target did not slow: %.3f vs %.3f CPI",
			least.TargetCPI, most.TargetCPI)
	}
	// And its own achieved bandwidth must drop.
	if least.TargetGBs >= most.TargetGBs {
		t.Errorf("target bandwidth did not drop: %.2f vs %.2f", least.TargetGBs, most.TargetGBs)
	}
}

func TestProfileComputeBoundTargetInsensitive(t *testing.T) {
	cfg := Config{
		Machine:        testMachine(3),
		Paces:          []uint32{0},
		IntervalInstrs: 30_000,
		WarmupInstrs:   15_000,
	}
	curve, err := Profile(cfg, computeTarget)
	if err != nil {
		t.Fatal(err)
	}
	base := curve.Points[len(curve.Points)-1].TargetCPI
	pressured := curve.Points[0].TargetCPI
	if pressured > base*1.10 {
		t.Errorf("compute-bound target slowed %.1f%% under bandit pressure",
			(pressured/base-1)*100)
	}
}

func TestProfileDeterministic(t *testing.T) {
	cfg := Config{
		Machine:        testMachine(2),
		Paces:          []uint32{0, 16},
		IntervalInstrs: 20_000,
		WarmupInstrs:   10_000,
	}
	a, err := Profile(cfg, streamTarget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile(cfg, streamTarget)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("bandit profile not deterministic at %d", i)
		}
	}
}

func TestPacingMonotone(t *testing.T) {
	// More pacing (gentler bandit) must consume less bandwidth.
	cfg := Config{
		Machine:        testMachine(2),
		Paces:          []uint32{0, 4, 32},
		IntervalInstrs: 25_000,
		WarmupInstrs:   10_000,
	}
	curve, err := Profile(cfg, computeTarget)
	if err != nil {
		t.Fatal(err)
	}
	byPace := map[uint32]float64{}
	for _, p := range curve.Points[:len(curve.Points)-1] { // skip baseline
		byPace[p.Pace] = p.BanditGBs
	}
	if !(byPace[0] > byPace[4] && byPace[4] > byPace[32]) {
		t.Errorf("bandit bandwidth not monotone in pace: %v", byPace)
	}
}
