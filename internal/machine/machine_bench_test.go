package machine

import (
	"testing"

	"cachepirate/internal/workload"
)

// benchGen is a cheap deterministic streaming generator so the
// benchmarks measure scheduler cost, not workload cost.
func benchGen(seed uint64) workload.Generator {
	return workload.NewSequential(workload.SequentialConfig{
		Name: "bench", Base: seed << 20, Span: 1 << 20,
		Elem: workload.LineSize, NInstr: 4, MLP: 2,
	})
}

// BenchmarkRunCycles measures the RunCycles hot path — the per-step
// cost of deadline-checked min-clock scheduling — on a fully occupied
// machine, where the selection scan is at its widest.
func BenchmarkRunCycles(b *testing.B) {
	m := MustNew(NehalemConfig())
	for i := 0; i < m.Cores(); i++ {
		m.MustAttach(i, benchGen(uint64(i+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunCycles(64)
	}
}

// BenchmarkRunCyclesOneRunnable is the sparse variant: one runnable
// core among four, so most of each scan is skip work.
func BenchmarkRunCyclesOneRunnable(b *testing.B) {
	m := MustNew(NehalemConfig())
	for i := 0; i < m.Cores(); i++ {
		m.MustAttach(i, benchGen(uint64(i+1)))
	}
	for i := 1; i < m.Cores(); i++ {
		m.Suspend(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunCycles(64)
	}
}

// BenchmarkMachineCoRun measures one machine step of the Pirate co-run,
// the step mix of the harness's pirate_profile workload: the omnetpp
// Target on core 0 and two line-stride scanners (one read per line, no
// instructions between, MLP 5 — core.Scanner's pattern) on cores 1 and
// 2, each holding 2 MB of the prefetch-less Nehalem L3. Once warm, most
// steps are scanner accesses and every one takes the hierarchy walk's
// longest path: L1 miss, L2 miss, L3 hit, L2 fill, L1 fill.
func BenchmarkMachineCoRun(b *testing.B) {
	const span = 2 << 20
	m := MustNew(NehalemConfigNoPrefetch())
	m.MustAttach(0, workload.MustByName("omnetpp").New(1))
	for c := 1; c <= 2; c++ {
		m.MustAttach(c, workload.NewSequential(workload.SequentialConfig{Name: "scanner", Span: span, MLP: 5}))
	}
	// Two sweeps per scanner with the Target halted, as Pirate.Warm does.
	m.Suspend(0)
	for c := 1; c <= 2; c++ {
		if err := m.RunInstructions(c, 2*span/workload.LineSize); err != nil {
			b.Fatal(err)
		}
	}
	m.Resume(0)
	b.ResetTimer()
	if got := m.RunSteps(b.N); got != b.N {
		b.Fatalf("ran %d of %d steps", got, b.N)
	}
}
