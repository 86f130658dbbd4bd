package cpu

import (
	"math"
	"testing"

	"cachepirate/internal/cache"
)

func testParams() Params {
	return Params{BaseCPI: 0.5, L1Cost: 1, L2Cost: 8, L3Cost: 20, PrefetchHitCost: 6, FreqHz: 2e9}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{BaseCPI: 0, L1Cost: 1, FreqHz: 1},
		{BaseCPI: 1, L1Cost: -1, FreqHz: 1},
		{BaseCPI: 1, L3Cost: -5, FreqHz: 1},
		{BaseCPI: 1, FreqHz: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestAccessCostPerLevel(t *testing.T) {
	p := testParams()
	cases := []struct {
		name string
		out  cache.Outcome
		mem  float64
		l3q  float64
		mlp  float64
		want float64
	}{
		{"l1", cache.Outcome{ServedBy: cache.LevelL1}, 0, 0, 1, 1},
		{"l2", cache.Outcome{ServedBy: cache.LevelL2}, 0, 0, 1, 9},
		{"l3", cache.Outcome{ServedBy: cache.LevelL3}, 0, 0, 1, 21},
		{"mem", cache.Outcome{ServedBy: cache.LevelMem}, 200, 0, 1, 221},
		{"mem-mlp4", cache.Outcome{ServedBy: cache.LevelMem}, 200, 0, 4, 1 + 220.0/4},
		{"l3-queued", cache.Outcome{ServedBy: cache.LevelL3}, 0, 10, 1, 31},
		{"prefetch-hit", cache.Outcome{ServedBy: cache.LevelL3, PrefetchHit: true}, 0, 0, 1, 7},
		{"prefetch-hit-dram-backlog", cache.Outcome{ServedBy: cache.LevelL3, PrefetchHit: true}, 12, 0, 1, 19},
		{"mlp-below-1", cache.Outcome{ServedBy: cache.LevelL2}, 0, 0, 0.25, 9},
	}
	for _, c := range cases {
		if got := AccessCost(p, c.out, c.mem, c.l3q, c.mlp); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: cost = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestAccessCostMLPReducesOnlyBeyondL1(t *testing.T) {
	p := testParams()
	l1a := AccessCost(p, cache.Outcome{ServedBy: cache.LevelL1}, 0, 0, 1)
	l1b := AccessCost(p, cache.Outcome{ServedBy: cache.LevelL1}, 0, 0, 8)
	if l1a != l1b {
		t.Error("MLP should not affect L1 hits")
	}
	m1 := AccessCost(p, cache.Outcome{ServedBy: cache.LevelMem}, 200, 0, 1)
	m8 := AccessCost(p, cache.Outcome{ServedBy: cache.LevelMem}, 200, 0, 8)
	if m8 >= m1 {
		t.Error("higher MLP should reduce memory stall cost")
	}
}

func TestCoreRetirement(t *testing.T) {
	c := MustNewCore(testParams())
	c.RetireInstrs(100)
	if c.Instructions() != 100 || c.Cycles() != 50 {
		t.Errorf("after 100 instrs: %d instrs, %g cycles", c.Instructions(), c.Cycles())
	}
	c.RetireAccess(20)
	if c.Instructions() != 101 || c.MemAccesses() != 1 {
		t.Errorf("access retirement: %d instrs, %d accesses", c.Instructions(), c.MemAccesses())
	}
	wantCycles := 50 + 0.5 + 20
	if math.Abs(c.Cycles()-wantCycles) > 1e-12 {
		t.Errorf("cycles = %g, want %g", c.Cycles(), wantCycles)
	}
}

func TestSuspendResume(t *testing.T) {
	c := MustNewCore(testParams())
	c.RetireInstrs(10) // 5 cycles
	c.Suspend()
	if !c.Suspended() {
		t.Fatal("not suspended")
	}
	c.Resume(1000)
	if c.Suspended() {
		t.Fatal("still suspended after resume")
	}
	if c.Cycles() != 1000 {
		t.Errorf("resume should jump clock to 1000, got %g", c.Cycles())
	}
	// Resuming at an earlier time must not move the clock backwards.
	c.Suspend()
	c.Resume(5)
	if c.Cycles() != 1000 {
		t.Errorf("resume moved clock backwards to %g", c.Cycles())
	}
}

func TestNewCoreRejectsBadParams(t *testing.T) {
	if _, err := NewCore(Params{}); err == nil {
		t.Error("NewCore accepted zero params")
	}
}
