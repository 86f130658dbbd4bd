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
