package core

import (
	"testing"
	"testing/quick"

	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// TestPirateSpanInvariants is the DESIGN.md §6 property: for arbitrary
// (bytes, threads) inputs, the quantum distribution (a) sums to the
// reported WSS, (b) keeps every span a whole multiple of the way size,
// and (c) keeps thread spans within one quantum of each other, so
// every L3 set loses the same number of ways ±0 (equal coverage).
func TestPirateSpanInvariants(t *testing.T) {
	m := machine.MustNew(testMachine(4))
	p, err := NewPirate(m, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	quantum := p.quantum
	f := func(rawBytes uint32, rawThreads uint8) bool {
		bytes := int64(rawBytes) % (64 << 10)
		threads := 1 + int(rawThreads)%3
		if err := p.SetWSS(bytes, threads); err != nil {
			return false
		}
		var total, minSpan, maxSpan int64
		minSpan = 1 << 62
		active := 0
		for _, s := range p.scanners {
			span := s.Span()
			total += span
			if span == 0 {
				continue
			}
			active++
			if span%quantum != 0 {
				return false // (b)
			}
			if span < minSpan {
				minSpan = span
			}
			if span > maxSpan {
				maxSpan = span
			}
		}
		if total != p.WSS() {
			return false // (a)
		}
		if active > 0 && maxSpan-minSpan > quantum {
			return false // (c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMachineDeterminismProperty: arbitrary seeds give reproducible
// counter values across two identical co-runs.
func TestMachineDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		run := func() uint64 {
			m := machine.MustNew(testMachine(2))
			m.MustAttach(0, workload.NewRandomAccess(workload.RandomConfig{
				Name: "r", Span: 48 << 10, NInstr: 2, Seed: seed}))
			m.MustAttach(1, workload.NewSequential(workload.SequentialConfig{
				Name: "s", Span: 32 << 10, NInstr: 1}))
			m.RunSteps(5000)
			a := m.ReadCounters(0)
			b := m.ReadCounters(1)
			return a.Cycles ^ a.L3Fetches<<17 ^ b.Cycles<<31 ^ b.L3Misses<<47
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
