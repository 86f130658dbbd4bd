package stress

import (
	"testing"

	"cachepirate/internal/workload"
)

// randTarget is a cache-hungry target for the distortion tests.
func randTarget(seed uint64) workload.Generator {
	return workload.NewRandomAccess(workload.RandomConfig{
		Name: "rt", Span: 48 << 10, NInstr: 3, Seed: seed})
}

func TestXuCoRunDeterministic(t *testing.T) {
	run := func() XuResult {
		r, err := XuCoRun(smallMachine(2), randTarget, 1, 32<<10, 20_000, 4_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := run(), run(); a != b {
		t.Errorf("XuCoRun nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestXuOccupancySampleCadence(t *testing.T) {
	// A sample interval larger than the budget still yields >= 1 sample
	// (the final partial chunk).
	r, err := XuCoRun(smallMachine(2), randTarget, 1, 32<<10, 10_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgStolenBytes < 0 {
		t.Errorf("bad occupancy %d", r.AvgStolenBytes)
	}
}

func TestXuStressorStealsLessThanRequestedFromFighter(t *testing.T) {
	// Against a target that actively reuses the whole L3, the freely
	// contending stressor cannot hold its requested footprint — the
	// paper's first criticism of the approach.
	fighter := func(seed uint64) workload.Generator {
		return workload.NewRandomAccess(workload.RandomConfig{
			Name: "fighter", Span: 64 << 10, NInstr: 0, MLP: 4, Seed: seed})
	}
	r, err := XuCoRun(smallMachine(2), fighter, 1, 48<<10, 40_000, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgStolenBytes >= 48<<10 {
		t.Errorf("stressor held its full request (%d bytes) against a fighting target", r.AvgStolenBytes)
	}
}

func TestBaseVectorDeterministic(t *testing.T) {
	run := func() Sensitivity {
		s, err := BaseVectorSensitivity(smallMachine(2), randTarget, 1, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Errorf("BaseVectorSensitivity nondeterministic: %+v vs %+v", a, b)
	}
}

func TestBaseVectorSlowsCacheHungryMoreThanComputeBound(t *testing.T) {
	compute := func(seed uint64) workload.Generator {
		return workload.NewComputeBound("cb", 512, 20)
	}
	hungry, err := BaseVectorSensitivity(smallMachine(2), randTarget, 1, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	calm, err := BaseVectorSensitivity(smallMachine(2), compute, 1, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := func(s Sensitivity) float64 { return s.CoRunCPI/s.AloneCPI - 1 }
	if slowdown(hungry) <= slowdown(calm) {
		t.Errorf("base vector should hurt the cache-hungry target more: %.3f vs %.3f",
			slowdown(hungry), slowdown(calm))
	}
}
