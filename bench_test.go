// Micro-benchmarks of the simulation substrate: the machine's step
// loop alone and under a four-context co-run, and raw generator
// throughput. The paper's tables and figures are printed by
// cmd/experiments, not regenerated here.
//
//	go test -run XXX -bench Machine -benchtime 1x
package cachepirate_test

import (
	"testing"

	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// BenchmarkMachineStep measures the simulator's per-op cost with a
// single streaming context on the full Nehalem model.
func BenchmarkMachineStep(b *testing.B) {
	m := machine.MustNew(machine.NehalemConfig())
	m.MustAttach(0, workload.MustByName("libquantum").New(1))
	b.ResetTimer()
	m.RunSteps(b.N)
}

// BenchmarkMachineStepCoRun measures per-op cost with four contending
// contexts (the co-run configuration every experiment uses).
func BenchmarkMachineStepCoRun(b *testing.B) {
	m := machine.MustNew(machine.NehalemConfig())
	for i := 0; i < 4; i++ {
		m.MustAttach(i, workload.MustByName("mcf").New(uint64(i+1)))
	}
	b.ResetTimer()
	m.RunSteps(b.N)
}

// BenchmarkWorkloadNext measures raw generator throughput.
func BenchmarkWorkloadNext(b *testing.B) {
	g := workload.MustByName("omnetpp").New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
