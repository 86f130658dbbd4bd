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
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
		if err := m.Attach(i, newGen(seed+uint64(i)*101)); err != nil {
			return 0, nil, err
		}
	}
	// Incremental warming would give later instances extra runtime and
	// make scaling look super-linear.
	if err := m.WarmTo(warmInstrs, cores...); err != nil {
		return 0, nil, err
	}
	iv, err := counters.Interval(m, func() error { return m.RunInstructions(0, measureInstrs) })
	if err != nil {
		return 0, nil, err
	}
	var agg float64
	for _, s := range iv[:n] {
		agg += s.IPC()
	}
	return agg, iv[:n], nil
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
