package experiments

import (
	"fmt"

	"cachepirate/internal/core"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
)

// measureThroughput co-runs n identical instances of the workload (one
// per core, disjoint address spaces) and returns their aggregate
// throughput: the sum of per-instance IPCs over a common measurement
// window. Divide by the n=1 value to normalise as the paper's
// Fig. 1(a)/2(a) do.
func measureThroughput(mcfg machine.Config, newGen core.GenFactory, seed uint64,
	n int, warmInstrs, measureInstrs uint64) (float64, []counters.Sample, error) {
	if n < 1 || n > mcfg.Cores {
		return 0, nil, fmt.Errorf("experiments: %d instances on %d cores", n, mcfg.Cores)
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i < n; i++ {
		if err := m.Attach(i, newGen(seed+uint64(i)*101)); err != nil {
			return 0, nil, err
		}
	}
	// Warm every instance to the same absolute instruction count (under
	// min-clock scheduling co-runners advance together, so this loop
	// converges in one pass). Incremental warming would give later
	// instances extra runtime and make scaling look super-linear.
	for i := 0; i < n; i++ {
		cur := m.ReadCounters(i).Instructions
		if cur < warmInstrs {
			if err := m.RunInstructions(i, warmInstrs-cur); err != nil {
				return 0, nil, err
			}
		}
	}
	pmu := counters.NewPMU(m)
	pmu.MarkAll()
	if err := m.RunInstructions(0, measureInstrs); err != nil {
		return 0, nil, err
	}
	var agg float64
	var samples []counters.Sample
	for i := 0; i < n; i++ {
		s := pmu.ReadInterval(i)
		samples = append(samples, s)
		agg += s.IPC()
	}
	return agg, samples, nil
}

// throughputSeries measures aggregate throughput for 1..maxN instances
// and returns values normalised to the single-instance result, plus
// the per-run aggregate off-chip bandwidth in GB/s.
func throughputSeries(mcfg machine.Config, newGen core.GenFactory, seed uint64,
	maxN int, warmInstrs, measureInstrs uint64) (thr []float64, aggBW []float64, err error) {
	var solo float64
	for n := 1; n <= maxN; n++ {
		agg, samples, err := measureThroughput(mcfg, newGen, seed, n, warmInstrs, measureInstrs)
		if err != nil {
			return nil, nil, err
		}
		if n == 1 {
			solo = agg
		}
		thr = append(thr, agg/solo)
		var bw float64
		for _, s := range samples {
			bw += s.BandwidthGBs(mcfg.CPU.FreqHz)
		}
		aggBW = append(aggBW, bw)
	}
	return thr, aggBW, nil
}
