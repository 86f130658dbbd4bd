package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSubAddInverse(t *testing.T) {
	f := func(a, b Sample) bool {
		// Ensure a >= b field-wise to keep uints well-defined.
		sum := a.Add(b)
		return sum.Sub(b) == a && sum.Sub(a) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDerivedMetrics(t *testing.T) {
	s := Sample{
		Instructions: 1000,
		Cycles:       2000,
		MemAccesses:  400,
		L3Misses:     20,
		L3Fetches:    60,
	}
	if got := s.CPI(); got != 2.0 {
		t.Errorf("CPI = %g, want 2", got)
	}
	if got := s.IPC(); got != 0.5 {
		t.Errorf("IPC = %g, want 0.5", got)
	}
	if got := s.MissRatio(); got != 0.05 {
		t.Errorf("MissRatio = %g, want 0.05", got)
	}
	if got := s.FetchRatio(); got != 0.15 {
		t.Errorf("FetchRatio = %g, want 0.15", got)
	}
}

func TestDerivedMetricsZeroSafe(t *testing.T) {
	var z Sample
	if z.CPI() != 0 || z.IPC() != 0 || z.MissRatio() != 0 || z.FetchRatio() != 0 || z.BandwidthGBs(2e9) != 0 {
		t.Error("zero sample should derive all-zero metrics")
	}
}

func TestBandwidthGBs(t *testing.T) {
	// 4.58 bytes/cycle at 2.27 GHz ≈ 10.4 GB/s.
	s := Sample{Cycles: 1000, MemReadBytes: 4000, MemWriteBytes: 580}
	got := s.BandwidthGBs(2.27e9)
	if math.Abs(got-10.3966) > 0.01 {
		t.Errorf("BandwidthGBs = %g, want ~10.4", got)
	}
}

// fakeSource is an in-test counter source.
type fakeSource struct {
	samples []Sample
}

func (f *fakeSource) ReadCounters(core int) Sample { return f.samples[core] }
func (f *fakeSource) Cores() int                   { return len(f.samples) }

func TestPMUInterval(t *testing.T) {
	src := &fakeSource{samples: make([]Sample, 2)}
	pmu := NewPMU(src)

	src.samples[0] = Sample{Instructions: 100, Cycles: 200}
	pmu.Mark(0)
	src.samples[0] = Sample{Instructions: 150, Cycles: 320}
	got := pmu.ReadInterval(0)
	if got.Instructions != 50 || got.Cycles != 120 {
		t.Errorf("interval = %+v, want 50 instrs / 120 cycles", got)
	}
	// Core 1 was never marked: interval is cumulative.
	src.samples[1] = Sample{Instructions: 7}
	if got := pmu.ReadInterval(1); got.Instructions != 7 {
		t.Errorf("unmarked interval = %+v", got)
	}
}

func TestPMUMarkAll(t *testing.T) {
	src := &fakeSource{samples: []Sample{{Instructions: 5}, {Instructions: 9}}}
	pmu := NewPMU(src)
	pmu.MarkAll()
	if got := pmu.ReadInterval(0); got.Instructions != 0 {
		t.Errorf("interval after MarkAll = %+v", got)
	}
	if got := pmu.ReadInterval(1); got.Instructions != 0 {
		t.Errorf("interval after MarkAll = %+v", got)
	}
}
