package counters_test

import (
	"context"
	"errors"
	"testing"

	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// intervalMachine is a three-core machine whose core 0 runs, core 1 is
// attached but suspended and core 2 was never attached, warmed so that
// none of the counters it reads start at zero by accident.
func intervalMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m := machine.MustNew(machine.WithL3Size(machine.NehalemConfig(), 1<<20))
	gen := func(seed uint64) workload.Generator {
		return workload.NewRandomAccess(workload.RandomConfig{Name: "rand", Span: 4 << 20, NInstr: 3, Seed: seed})
	}
	m.MustAttach(0, gen(1))
	m.MustAttach(1, gen(2))
	if err := m.RunInstructions(0, 20_000); err != nil {
		t.Fatal(err)
	}
	m.Suspend(1)
	return m
}

// TestIntervalIsAfterMinusBefore: every core's sample is its counters
// after run minus its counters before — the running core's events, and
// nothing for the suspended and the never-attached core.
func TestIntervalIsAfterMinusBefore(t *testing.T) {
	m := intervalMachine(t)
	var before []counters.Sample
	for c := 0; c < m.Cores(); c++ {
		before = append(before, m.ReadCounters(c))
	}
	iv, err := counters.Interval(m, func() error { return m.RunInstructions(0, 30_000) })
	if err != nil {
		t.Fatal(err)
	}
	if len(iv) != m.Cores() {
		t.Fatalf("%d samples for %d cores", len(iv), m.Cores())
	}
	for c := range iv {
		if want := m.ReadCounters(c).Sub(before[c]); iv[c] != want {
			t.Errorf("core %d: interval %+v, want %+v", c, iv[c], want)
		}
	}
	if iv[0].Instructions < 30_000 || iv[0].L3Fetches == 0 {
		t.Errorf("running core's interval %+v misses its events", iv[0])
	}
	if iv[1] != (counters.Sample{}) || iv[2] != (counters.Sample{}) {
		t.Errorf("idle cores' intervals %+v, %+v are not empty", iv[1], iv[2])
	}
}

// TestIntervalReturnsRunError: run's error comes back unchanged, a
// cancelled replay's context error included, with no samples.
func TestIntervalReturnsRunError(t *testing.T) {
	m := intervalMachine(t)
	boom := errors.New("boom")
	if iv, err := counters.Interval(m, func() error { return boom }); err != boom || iv != nil {
		t.Errorf("Interval = %v, %v; want nil, %v", iv, err, boom)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iv, err := counters.Interval(m, func() error { return m.RunInstructionsCtx(ctx, 0, 1<<30) })
	if !errors.Is(err, context.Canceled) || iv != nil {
		t.Errorf("cancelled Interval = %v, %v; want nil, context.Canceled", iv, err)
	}
}
