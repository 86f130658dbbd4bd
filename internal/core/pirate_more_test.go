package core

import (
	"testing"

	"cachepirate/internal/machine"
)

func TestScannerInterfaceMethods(t *testing.T) {
	s := NewScanner(64)
	s.SetSpan(512)
	if s.Name() != "pirate" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.MLP() < 1 {
		t.Errorf("MLP = %g", s.MLP())
	}
	if s.WorkingSet() != 512 {
		t.Errorf("WorkingSet = %d", s.WorkingSet())
	}
	s.Next()
	s.Reset(0)
	if got := s.Next().Addr; got != 64 {
		t.Errorf("first address after reset = %d, want base 64", got)
	}
}

func TestPirateAccessors(t *testing.T) {
	m := machine.MustNew(testMachine(3))
	p, err := NewPirate(m, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Quantum = L3 size / ways = 64KB/16 = 4KB on the test machine.
	if got := p.quantum; got != 4<<10 {
		t.Errorf("Quantum = %d, want 4096", got)
	}
	if err := p.SetWSS(16<<10, 2); err != nil {
		t.Fatal(err)
	}
	if p.threads != 2 {
		t.Errorf("Threads = %d", p.threads)
	}
	if p.WSS() != 16<<10 {
		t.Errorf("WSS = %d", p.WSS())
	}
}

func TestPirateWSSRoundsToQuantum(t *testing.T) {
	m := machine.MustNew(testMachine(2))
	p, _ := NewPirate(m, []int{1})
	// 6KB rounds to the nearest 4KB quantum: 8KB.
	if err := p.SetWSS(6<<10, 1); err != nil {
		t.Fatal(err)
	}
	if p.WSS() != 8<<10 {
		t.Errorf("WSS = %d, want 8192 (quantum-rounded)", p.WSS())
	}
	// 1KB rounds down to zero quanta: everything suspended.
	if err := p.SetWSS(1<<10, 1); err != nil {
		t.Fatal(err)
	}
	if p.WSS() != 0 || !m.Suspended(1) {
		t.Errorf("sub-quantum WSS should suspend: wss=%d", p.WSS())
	}
}

func TestPirateNaiveSplitBehaviour(t *testing.T) {
	m := machine.MustNew(testMachine(3))
	p, _ := NewPirate(m, []int{1, 2})
	p.SetNaiveSplit(true)
	// A non-quantum-aligned total: the naive split keeps the exact
	// bytes (rounded to lines), unlike the quantum path.
	if err := p.SetWSS(6<<10, 2); err != nil {
		t.Fatal(err)
	}
	if p.WSS() != 6<<10 {
		t.Errorf("naive WSS = %d, want 6144", p.WSS())
	}
	var total int64
	for _, s := range p.scanners {
		total += s.Span()
	}
	if total != 6<<10 {
		t.Errorf("naive spans sum to %d", total)
	}
	// Zero still suspends.
	if err := p.SetWSS(0, 1); err != nil {
		t.Fatal(err)
	}
	if !m.Suspended(1) || !m.Suspended(2) {
		t.Error("naive zero WSS left threads running")
	}
}

func TestPirateResumeSkipsZeroSpans(t *testing.T) {
	m := machine.MustNew(testMachine(3))
	p, _ := NewPirate(m, []int{1, 2})
	if err := p.SetWSS(4<<10, 1); err != nil { // one quantum on thread 0 only
		t.Fatal(err)
	}
	p.Suspend()
	p.Resume()
	if m.Suspended(1) {
		t.Error("active thread not resumed")
	}
	if !m.Suspended(2) {
		t.Error("zero-span thread resumed")
	}
}

func TestTargetSlowdownSameThreadsIsZeroish(t *testing.T) {
	cfg := testConfig(3)
	sd, err := TargetSlowdown(cfg, randTarget(32<<10), 8<<10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sd != 0 {
		t.Errorf("identical thread counts should give zero slowdown, got %g", sd)
	}
}

func TestTargetSlowdownValidatesConfig(t *testing.T) {
	cfg := testConfig(2)
	cfg.Sizes = []int64{1 << 30} // invalid: larger than L3
	if _, err := TargetSlowdown(cfg, randTarget(1024), 8<<10, 1, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMeasureOverheadPropagatesProfileErrors(t *testing.T) {
	cfg := testConfig(2)
	cfg.Sizes = []int64{1 << 30} // invalid: larger than L3
	if _, _, _, err := MeasureOverhead(cfg, mustNotBuild(t)); err == nil {
		t.Error("invalid config accepted by MeasureOverhead")
	}
}

func TestOverheadReportZeroSafe(t *testing.T) {
	var o OverheadReport
	if o.Overhead() != 0 {
		t.Errorf("zero report overhead = %g", o.Overhead())
	}
}
