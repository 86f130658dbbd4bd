package machine

import (
	"math"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/workload"
)

// smallConfig is a scaled-down machine for fast tests: 1KB L1, 4KB L2,
// 64KB L3.
func smallConfig(cores int) Config {
	cfg := NehalemConfig()
	cfg.Cores = cores
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 64 << 10, Ways: 16, LineSize: 64, Policy: cache.Nehalem}
	cfg.NewPrefetcher = nil
	return cfg
}

func seqGen(span int64) workload.Generator {
	return workload.NewSequential(workload.SequentialConfig{Name: "seq", Span: span, NInstr: 2})
}

func TestConfigValidate(t *testing.T) {
	if err := NehalemConfig().Validate(); err != nil {
		t.Fatalf("Nehalem config invalid: %v", err)
	}
	bad := NehalemConfig()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	// Each L3 line records its filling core in one byte.
	bad.Cores = cache.MaxOwners + 1
	if err := bad.Validate(); err == nil {
		t.Errorf("%d cores accepted", bad.Cores)
	}
}

func TestTable1_NehalemConfig(t *testing.T) {
	cfg := NehalemConfig()
	if cfg.L1.Size != 32<<10 || cfg.L1.Ways != 8 || cfg.L1.Policy != cache.PseudoLRU {
		t.Errorf("L1 mismatch with Table I: %+v", cfg.L1)
	}
	if cfg.L2.Size != 256<<10 || cfg.L2.Ways != 8 || cfg.L2.Policy != cache.PseudoLRU {
		t.Errorf("L2 mismatch with Table I: %+v", cfg.L2)
	}
	if cfg.L3.Size != 8<<20 || cfg.L3.Ways != 16 || cfg.L3.Policy != cache.Nehalem {
		t.Errorf("L3 mismatch with Table I: %+v", cfg.L3)
	}
	if cfg.Cores != 4 {
		t.Errorf("cores = %d, want 4", cfg.Cores)
	}
	// Bandwidth constants from §I-A and §III-C.
	if gbs := cfg.DRAM.BytesPerCycle * NehalemFreqHz / 1e9; math.Abs(gbs-10.4) > 1e-9 {
		t.Errorf("DRAM bandwidth = %g GB/s, want 10.4", gbs)
	}
	if gbs := cfg.L3Port.BytesPerCycle * NehalemFreqHz / 1e9; math.Abs(gbs-68) > 1e-9 {
		t.Errorf("L3 bandwidth = %g GB/s, want 68", gbs)
	}
}

func TestWithL3Helpers(t *testing.T) {
	cfg := NehalemConfig()
	c2 := WithL3Size(cfg, 4<<20)
	if c2.L3.Size != 4<<20 || c2.L3.Ways != 16 {
		t.Errorf("WithL3Size: %+v", c2.L3)
	}
	c3 := WithL3Ways(cfg, 4)
	if c3.L3.Size != 2<<20 || c3.L3.Ways != 4 {
		t.Errorf("WithL3Ways: size=%d ways=%d, want 2MB/4", c3.L3.Size, c3.L3.Ways)
	}
	c4 := WithL3Policy(cfg, cache.LRU)
	if c4.L3.Policy != cache.LRU {
		t.Error("WithL3Policy did not apply")
	}
	if cfg.L3.Size != 8<<20 || cfg.L3.Policy != cache.Nehalem {
		t.Error("helpers mutated the input config")
	}
}

func TestAttachDetach(t *testing.T) {
	m := MustNew(smallConfig(2))
	if m.Attached(0) {
		t.Fatal("fresh machine has a context")
	}
	if err := m.Attach(5, seqGen(1024)); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := m.Attach(0, nil); err == nil {
		t.Error("nil generator accepted")
	}
	m.MustAttach(0, seqGen(1024))
	if !m.Attached(0) {
		t.Fatal("attach did not register")
	}
	if !m.Step() {
		t.Fatal("runnable machine did not step")
	}
	m.Detach(0)
	if m.Attached(0) || m.Step() {
		t.Error("detach left a runnable context")
	}
}

func TestStepNoProcs(t *testing.T) {
	m := MustNew(smallConfig(1))
	if m.Step() {
		t.Error("empty machine stepped")
	}
}

func TestCountersTrackExecution(t *testing.T) {
	m := MustNew(smallConfig(1))
	m.MustAttach(0, seqGen(1024))
	if err := m.RunInstructions(0, 3000); err != nil {
		t.Fatal(err)
	}
	s := m.ReadCounters(0)
	if s.Instructions < 3000 {
		t.Errorf("instructions = %d, want >= 3000", s.Instructions)
	}
	if s.Cycles == 0 || s.MemAccesses == 0 {
		t.Errorf("cycles=%d accesses=%d", s.Cycles, s.MemAccesses)
	}
	// 1KB span fits the L1: after warm-up almost everything hits L1,
	// so L3 traffic stays tiny.
	if s.L3Misses > 32 {
		t.Errorf("L1-resident workload missed L3 %d times", s.L3Misses)
	}
	if s.CPI() <= 0 {
		t.Errorf("CPI = %g", s.CPI())
	}
}

func TestRunInstructionsNotRunnable(t *testing.T) {
	m := MustNew(smallConfig(1))
	if err := m.RunInstructions(0, 10); err == nil {
		t.Error("RunInstructions on empty core should fail")
	}
	m.MustAttach(0, seqGen(1024))
	m.Suspend(0)
	if err := m.RunInstructions(0, 10); err == nil {
		t.Error("RunInstructions on suspended core should fail")
	}
}

// TestRunInstructionsWrapErrors: a count that would wrap the core's
// instruction counter is an error before any step, not a target below
// the count already retired that returns at once having run nothing.
func TestRunInstructionsWrapErrors(t *testing.T) {
	m := MustNew(smallConfig(1))
	m.MustAttach(0, seqGen(1024))
	if err := m.RunInstructions(0, 100); err != nil {
		t.Fatal(err)
	}
	before := m.ReadCounters(0)
	if err := m.RunInstructions(0, math.MaxUint64); err == nil {
		t.Fatal("a count past 2^64 instructions was accepted")
	}
	if after := m.ReadCounters(0); after != before {
		t.Errorf("the refused run changed the counters: %+v -> %+v", before, after)
	}
}

func TestSuspendResume(t *testing.T) {
	m := MustNew(smallConfig(2))
	m.MustAttach(0, seqGen(1024))
	m.MustAttach(1, seqGen(1024))
	m.Suspend(1)
	if !m.Suspended(1) {
		t.Fatal("suspend failed")
	}
	if err := m.RunInstructions(0, 1000); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadCounters(1).Instructions; got != 0 {
		t.Errorf("suspended core retired %d instructions", got)
	}
	now := m.Now()
	m.Resume(1)
	if m.Suspended(1) {
		t.Fatal("resume failed")
	}
	// Resumed core's clock jumps to the global time, not zero.
	if got := m.cores[1].cycles; got != now {
		t.Errorf("resumed core cycles = %g, want the global time %g", got, now)
	}
	if err := m.RunInstructions(1, 100); err != nil {
		t.Fatal(err)
	}
	if c1 := m.ReadCounters(1); c1.Cycles < 100 {
		t.Errorf("resumed core cycles = %d; should start from global time", c1.Cycles)
	}
	// A core whose clock is ahead of the global time keeps it: resuming
	// never moves a clock backwards.
	m.Suspend(0)
	m.Step()
	ahead := m.cores[1].cycles
	if ahead <= m.Now() {
		t.Fatalf("core 1 at %g is not ahead of the global time %g", ahead, m.Now())
	}
	m.Suspend(1)
	m.Resume(1)
	if got := m.cores[1].cycles; got != ahead {
		t.Errorf("resume moved the clock from %g to %g", ahead, got)
	}
}

func TestMinClockInterleavingIsFair(t *testing.T) {
	m := MustNew(smallConfig(2))
	m.MustAttach(0, seqGen(64<<10))
	m.MustAttach(1, seqGen(64<<10))
	m.RunSteps(20000)
	c0, c1 := m.ReadCounters(0), m.ReadCounters(1)
	// Identical workloads on identical cores must stay within a few
	// percent of each other.
	r := float64(c0.Instructions) / float64(c1.Instructions)
	if r < 0.95 || r > 1.05 {
		t.Errorf("unfair interleave: %d vs %d instructions", c0.Instructions, c1.Instructions)
	}
}

func TestAddressSpacesAreDisjoint(t *testing.T) {
	m := MustNew(smallConfig(2))
	// Same generator spec on both cores: with shared addresses they
	// would share L3 lines; with per-core offsets they must not.
	m.MustAttach(0, seqGen(2048))
	m.MustAttach(1, seqGen(2048))
	m.RunSteps(2000)
	l3 := m.Hierarchy().L3()
	// Each core's lines are owned by that core; cross-owner hits would
	// show up as owner-0 lines shrinking while owner 1 stays hot.
	if l3.ResidentLines(0) == 0 || l3.ResidentLines(1) == 0 {
		t.Error("expected both cores to hold L3 lines")
	}
	if got := m.ReadCounters(0).L3Fetches; got == 0 {
		t.Error("core 0 fetched nothing; address spaces may be shared")
	}
	if got := m.ReadCounters(1).L3Fetches; got == 0 {
		t.Error("core 1 fetched nothing despite private address space")
	}
}

func TestSharedCacheContentionSlowsCoRunner(t *testing.T) {
	// A random-access workload whose span fits the whole L3 but not
	// half of it: co-running two instances must raise the miss ratio.
	missRatio := func(instances int) float64 {
		m := MustNew(smallConfig(4))
		for i := 0; i < instances; i++ {
			m.MustAttach(i, workload.NewRandomAccess(workload.RandomConfig{
				Name: "r", Span: 48 << 10, NInstr: 2, Seed: uint64(i + 1)}))
		}
		for i := 0; i < instances; i++ {
			if err := m.RunInstructions(i, 60000); err != nil {
				t.Fatal(err)
			}
		}
		return m.ReadCounters(0).MissRatio()
	}
	solo, duo := missRatio(1), missRatio(2)
	if duo <= solo*1.2 {
		t.Errorf("co-running did not raise miss ratio: solo=%g duo=%g", solo, duo)
	}
}

func TestBandwidthContentionAddsQueueing(t *testing.T) {
	// Streaming workloads with spans far beyond L3: each instance
	// demands DRAM bandwidth; four at once must exceed the DRAM
	// capacity and slow everyone down (the LBM effect, Fig. 2).
	cpiOf := func(instances int) float64 {
		m := MustNew(smallConfig(4))
		for i := 0; i < instances; i++ {
			m.MustAttach(i, workload.NewSequential(workload.SequentialConfig{
				Name: "s", Span: 16 << 20, NInstr: 1, MLP: 4}))
		}
		for i := 0; i < instances; i++ {
			if err := m.RunInstructions(i, 40000); err != nil {
				t.Fatal(err)
			}
		}
		return m.ReadCounters(0).CPI()
	}
	solo, quad := cpiOf(1), cpiOf(4)
	if quad <= solo*1.05 {
		t.Errorf("DRAM contention did not raise CPI: solo=%g quad=%g", solo, quad)
	}
}

func TestDeterministicCoRun(t *testing.T) {
	run := func() counters.Sample {
		m := MustNew(smallConfig(3))
		m.MustAttach(0, workload.MustByName("microrand").New(1))
		m.MustAttach(1, workload.MustByName("microseq").New(2))
		m.MustAttach(2, seqGen(32<<10))
		m.RunSteps(30000)
		return m.ReadCounters(0).Add(m.ReadCounters(1)).Add(m.ReadCounters(2))
	}
	if a, b := run(), run(); a != b {
		t.Errorf("co-run not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestNowMonotone(t *testing.T) {
	m := MustNew(smallConfig(2))
	m.MustAttach(0, seqGen(8<<10))
	m.MustAttach(1, seqGen(8<<10))
	prev := m.Now()
	for i := 0; i < 5000; i++ {
		if !m.Step() {
			break
		}
		if m.Now() < prev {
			t.Fatalf("Now went backwards at step %d: %g < %g", i, m.Now(), prev)
		}
		prev = m.Now()
	}
}

func TestRunCyclesAdvancesClock(t *testing.T) {
	m := MustNew(smallConfig(1))
	m.MustAttach(0, seqGen(8<<10))
	m.RunSteps(10)
	start := m.Now()
	m.RunCycles(5000)
	if m.ReadCounters(0).Cycles < uint64(start)+5000 {
		t.Errorf("RunCycles did not advance: %d cycles", m.ReadCounters(0).Cycles)
	}
}

func TestDetachFlushesL3Lines(t *testing.T) {
	m := MustNew(smallConfig(2))
	m.MustAttach(0, seqGen(16<<10))
	m.RunSteps(1000)
	if m.Hierarchy().L3().ResidentLines(0) == 0 {
		t.Fatal("no lines resident before detach")
	}
	m.Detach(0)
	if got := m.Hierarchy().L3().ResidentLines(0); got != 0 {
		t.Errorf("%d lines survived detach", got)
	}
}

func TestReattachReplacesContext(t *testing.T) {
	m := MustNew(smallConfig(1))
	m.MustAttach(0, seqGen(16<<10))
	m.RunSteps(500)
	m.MustAttach(0, seqGen(1024)) // replace
	if got := m.Hierarchy().L3().ResidentLines(0); got != 0 {
		t.Errorf("reattach kept %d stale lines", got)
	}
	if err := m.RunInstructions(0, 100); err != nil {
		t.Fatal(err)
	}
}

func TestMemWriteBytesCounted(t *testing.T) {
	m := MustNew(smallConfig(1))
	m.MustAttach(0, workload.NewSequential(workload.SequentialConfig{
		Name: "w", Span: 16 << 20, NInstr: 1, WriteFrac: 1.0}))
	m.RunSteps(200000)
	s := m.ReadCounters(0)
	if s.MemWriteBytes == 0 {
		t.Error("write-heavy streaming produced no DRAM writebacks")
	}
	if s.MemReadBytes == 0 {
		t.Error("no DRAM reads recorded")
	}
}

func TestNoPrefetchFetchesEqualMisses(t *testing.T) {
	m := MustNew(smallConfig(1)) // NewPrefetcher nil
	m.MustAttach(0, workload.MustByName("microrand").New(3))
	m.RunSteps(50000)
	s := m.ReadCounters(0)
	if s.L3Fetches != s.L3Misses {
		t.Errorf("fetches(%d) != misses(%d) without prefetching", s.L3Fetches, s.L3Misses)
	}
	if s.L3Prefetches != 0 {
		t.Errorf("prefetches = %d with prefetching disabled", s.L3Prefetches)
	}
}

// TestWarmTo: WarmTo runs only the listed cores below the floor, in
// order, and leaves each at or above it; a core already there does not
// run at all, and a core that cannot run is an error.
func TestWarmTo(t *testing.T) {
	m := MustNew(smallConfig(3))
	m.MustAttach(0, seqGen(1024))
	m.MustAttach(1, seqGen(2048))
	m.Suspend(1)
	if err := m.RunInstructions(0, 40_000); err != nil {
		t.Fatal(err)
	}
	m.Resume(1)

	before, now := m.ReadCounters(0), m.Now()
	if err := m.WarmTo(20_000, 0); err != nil {
		t.Fatal(err)
	}
	if after := m.ReadCounters(0); after != before || m.Now() != now {
		t.Errorf("a core above the floor ran: %+v -> %+v", before, after)
	}

	if err := m.WarmTo(20_000, 0, 1); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if got := m.ReadCounters(c).Instructions; got < 20_000 {
			t.Errorf("core %d at %d instructions, below the floor", c, got)
		}
	}
	if m.Now() == now {
		t.Error("the core below the floor did not run")
	}

	if err := m.WarmTo(1, 2); err == nil {
		t.Error("warming a core with no context was accepted")
	}
}
