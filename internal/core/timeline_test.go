package core

import (
	"reflect"
	"testing"

	"cachepirate/internal/workload"
)

func TestProfileTimelineRecordsEverySample(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threads = 1
	cfg.Cycles = 3
	tl, rep, err := ProfileTimeline(cfg, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Cycles * len(cfg.Sizes)
	if len(tl.Samples) != want {
		t.Fatalf("samples = %d, want %d", len(tl.Samples), want)
	}
	if rep.TargetInstructions == 0 {
		t.Error("empty report")
	}
	// StartInstr strictly increases along the run.
	for i := 1; i < len(tl.Samples); i++ {
		if tl.Samples[i].StartInstr <= tl.Samples[i-1].StartInstr {
			t.Fatalf("timeline not ordered at %d", i)
		}
	}
	// Cycle indices cover 0..Cycles-1.
	seen := map[int]bool{}
	for _, s := range tl.Samples {
		seen[s.Cycle] = true
	}
	if len(seen) != cfg.Cycles {
		t.Errorf("cycles seen: %v", seen)
	}
}

// TestTimelineCurveMatchesProfile: Profile is the schedule's timeline
// averaged, so every field of every point equals Timeline.Curve's by
// bits, and the two runs report the same. A size listed twice is
// measured twice a cycle and still comes out as one point.
func TestTimelineCurveMatchesProfile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sizes  []int64
		points int
	}{
		{"default sizes", testConfig(2).Sizes, 8},
		{"repeated size", []int64{16 << 10, 32 << 10, 32 << 10, 64 << 10}, 3},
	} {
		cfg := testConfig(2)
		cfg.Threads = 1
		cfg.Sizes = tc.sizes
		tl, tlRep, err := ProfileTimeline(cfg, randTarget(48<<10))
		if err != nil {
			t.Fatal(err)
		}
		fromTL := tl.Curve(cfg.withDefaults().FetchThreshold)
		direct, rep, err := Profile(cfg, randTarget(48<<10))
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Points) != tc.points {
			t.Errorf("%s: Profile returned %d points, want %d", tc.name, len(direct.Points), tc.points)
		}
		if curveDigest(direct) != curveDigest(fromTL) {
			t.Errorf("%s: Profile's curve differs from the timeline's:\n%+v\nvs\n%+v", tc.name, direct.Points, fromTL.Points)
		}
		if !reflect.DeepEqual(rep, tlRep) {
			t.Errorf("%s: reports differ: %+v vs %+v", tc.name, rep, tlRep)
		}
	}
}

func TestPhaseSpreadDetectsPhases(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threads = 1
	cfg.Cycles = 3

	// Steady workload: spread should be small.
	steadyTL, _, err := ProfileTimeline(cfg, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}

	// Phased workload alternating between cache-hungry and compute
	// behaviour on a scale comparable to one measurement cycle.
	phased := func(seed uint64) workload.Generator {
		return workload.NewPhased("ph",
			workload.Phase{Gen: workload.NewRandomAccess(workload.RandomConfig{
				Name: "hungry", Span: 64 << 10, NInstr: 2, Seed: seed + 1}), Instrs: 120_000},
			workload.Phase{Gen: workload.NewComputeBound("calm", 512, 20), Instrs: 120_000},
		)
	}
	phasedTL, _, err := ProfileTimeline(cfg, phased)
	if err != nil {
		t.Fatal(err)
	}

	maxOf := func(spread []SpreadPoint) float64 {
		best := 0.0
		for _, sp := range spread {
			if sp.Spread > best {
				best = sp.Spread
			}
		}
		return best
	}
	steady, ph := maxOf(steadyTL.PhaseSpread()), maxOf(phasedTL.PhaseSpread())
	if ph <= steady {
		t.Errorf("phase spread should flag the phased workload: steady=%.3f phased=%.3f", steady, ph)
	}
}

func TestAttachInstrFastForwards(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threads = 1
	cfg.Cycles = 1
	cfg.Sizes = cfg.Sizes[:2]
	cfg.AttachInstr = 50_000
	tl, _, err := ProfileTimeline(cfg, randTarget(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if tl.Samples[0].StartInstr < 50_000 {
		t.Errorf("first sample at instruction %d, attach requested at 50000", tl.Samples[0].StartInstr)
	}
}

func TestTimelineCurveEmptyThresholds(t *testing.T) {
	tl := &Timeline{}
	if c := tl.Curve(0.03); len(c.Points) != 0 {
		t.Error("empty timeline produced points")
	}
	if s := tl.PhaseSpread(); len(s) != 0 {
		t.Error("empty timeline produced spreads")
	}
}
