package machine

import (
	"testing"

	"cachepirate/internal/workload"
)

// TestWarm pins both warm-up rules. Core 0 loops over 1KB (it settles
// at once), core 1 sweeps 6MB cold (its L3 occupancy grows every
// chunk) and core 2 has no context.
func TestWarm(t *testing.T) {
	const chunk = 10_000
	newMachine := func() *Machine {
		cfg := NehalemConfig()
		cfg.Cores = 3
		cfg.NewPrefetcher = nil
		m := MustNew(cfg)
		m.MustAttach(0, seqGen(1024))
		m.MustAttach(1, workload.NewSequential(workload.SequentialConfig{Name: "scan", Span: 6 << 20, NInstr: 2}))
		return m
	}
	// lead runs core 0 alone to 40k instructions, core 1 left at 0.
	lead := func(m *Machine) error {
		m.Suspend(1)
		defer m.Resume(1)
		return m.RunInstructions(0, 40_000)
	}
	suspend := func(c int) func(*Machine) error {
		return func(m *Machine) error {
			if err := lead(m); err != nil {
				return err
			}
			m.Suspend(c)
			return nil
		}
	}
	chunks := func(c int, want uint64) func(*testing.T, *Machine, []uint64) {
		return func(t *testing.T, _ *Machine, ran []uint64) {
			if got := ran[c] / chunk; got != want {
				t.Errorf("core %d ran %d instructions, %d chunks; want %d", c, ran[c], got, want)
			}
		}
	}
	rows := []struct {
		name    string
		prep    func(*Machine) error
		w       Warm
		cores   []int
		wantErr bool
		// check inspects the machine after the warm-up; ran is each
		// core's instructions retired during it.
		check func(t *testing.T, m *Machine, ran []uint64)
	}{
		{"fixed on one core is RunInstructions", lead, Fixed(5000), []int{0}, false,
			func(t *testing.T, m *Machine, _ []uint64) {
				twin := newMachine()
				if err := lead(twin); err != nil {
					t.Fatal(err)
				}
				if err := twin.RunInstructions(0, 5000); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < 3; c++ {
					if got, want := m.ReadCounters(c), twin.ReadCounters(c); got != want {
						t.Errorf("core %d: %+v, RunInstructions gives %+v", c, got, want)
					}
				}
			}},
		{"fixed raises later cores to the first's floor", lead, Fixed(20_000), []int{0, 1}, false,
			func(t *testing.T, m *Machine, _ []uint64) {
				for c := 0; c < 2; c++ {
					if got := m.ReadCounters(c).Instructions; got < 60_000 {
						t.Errorf("core %d at %d instructions, below the floor 60000", c, got)
					}
				}
			}},
		// Core 0 is suspended, so running it would be an error.
		{"fixed skips a core past the floor", suspend(0), Fixed(20_000), []int{1, 0}, false,
			func(t *testing.T, _ *Machine, ran []uint64) {
				if ran[0] != 0 || ran[1] < 20_000 {
					t.Errorf("ran %v, want core 0 idle and core 1 past 20000", ran)
				}
			}},
		{"fixed on a first core that cannot run", nil, Fixed(10), []int{2}, true, nil},
		{"fixed(0) on a first core that cannot run", nil, Fixed(0), []int{2}, true, nil},
		{"fixed(0) runs nothing", lead, Fixed(0), []int{0}, false,
			func(t *testing.T, _ *Machine, ran []uint64) {
				if ran[0] != 0 || ran[1] != 0 {
					t.Errorf("ran %v, want nothing", ran)
				}
			}},
		{"stable stops at the first settled chunk", suspend(1), Stable(chunk), []int{0}, false, chunks(0, 2)},
		{"stable stops at 12 chunks", suspend(0), Stable(chunk), []int{1}, false, chunks(1, stableMaxChunks)},
		// The co-running sweep's occupancy grows all along; only the
		// first core's counts.
		{"stable reads the first core's occupancy", lead, Stable(chunk), []int{0, 1}, false, chunks(0, 2)},
		{"stable on a first core that cannot run", nil, Stable(chunk), []int{2}, true, nil},
		{"no cores", nil, Fixed(10), nil, true, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := newMachine()
			if row.prep != nil {
				if err := row.prep(m); err != nil {
					t.Fatal(err)
				}
			}
			before := make([]uint64, 3)
			for c := range before {
				before[c] = m.ReadCounters(c).Instructions
			}
			err := m.Warm(row.w, row.cores...)
			if (err != nil) != row.wantErr {
				t.Fatalf("err = %v, want error %v", err, row.wantErr)
			}
			if row.check != nil {
				ran := make([]uint64, 3)
				for c := range ran {
					ran[c] = m.ReadCounters(c).Instructions - before[c]
				}
				row.check(t, m, ran)
			}
		})
	}
}
