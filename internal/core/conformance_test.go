package core

import (
	"testing"

	"cachepirate/internal/conformance"
	"cachepirate/internal/machine"
)

// TestPirateCoRunCountersConserved runs the Fig. 5 warm/measure
// sequence (pirate steals half the L3 while the target runs) and then
// verifies the conformance invariant set on the hierarchy — the
// pirate's scanner streams and the suspend/resume cycling must not
// break counter conservation, residency bounds or inclusivity.
func TestPirateCoRunCountersConserved(t *testing.T) {
	m := machine.MustNew(testMachine(4))
	m.MustAttach(0, randTarget(40<<10)(1))
	p, err := NewPirate(m, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetWSS(8*p.quantum, 3); err != nil {
		t.Fatal(err)
	}
	m.Suspend(0)
	if err := p.Warm(2); err != nil {
		t.Fatal(err)
	}
	m.Resume(0)
	p.Resume()

	var clock []float64
	for i := 0; i < 10; i++ {
		if err := m.RunInstructions(0, 20_000); err != nil {
			t.Fatal(err)
		}
		clock = append(clock, m.Now())
		if err := conformance.CheckHierarchy(m.Hierarchy(), conformance.CheckOptions{}); err != nil {
			t.Fatalf("after interval %d: %v", i, err)
		}
	}
	if err := conformance.CheckMonotonic(clock); err != nil {
		t.Fatalf("event clock: %v", err)
	}

	// Growing the pirate and flushing a core must leave a consistent
	// state too.
	if err := p.SetWSS(12*p.quantum, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(1); err != nil {
		t.Fatal(err)
	}
	m.Hierarchy().FlushCore(2)
	if err := conformance.CheckHierarchy(m.Hierarchy(), conformance.CheckOptions{}); err != nil {
		t.Fatalf("after grow+flush: %v", err)
	}
}
