package experiments

import (
	"fmt"

	"cachepirate/internal/core"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// coRun attaches gens[i] to core i of a fresh machine, warms them by
// w and returns every core's events over core 0's next n instructions.
func coRun(mcfg machine.Config, w machine.Warm, n uint64, gens ...workload.Generator) ([]counters.Sample, error) {
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	cores := make([]int, len(gens))
	for i, g := range gens {
		cores[i] = i
		if err := m.Attach(i, g); err != nil {
			return nil, err
		}
	}
	if err := m.Warm(w, cores...); err != nil {
		return nil, err
	}
	return counters.Interval(m, func() error { return m.RunInstructions(0, n) })
}

// measureThroughput co-runs n identical instances of the workload (one
// per core, disjoint address spaces) and returns their aggregate
// throughput: the sum of per-instance IPCs over a common measurement
// window after every instance has warmed to one floor (an increment
// each would give later instances extra runtime and make scaling look
// super-linear). Divide by the n=1 value to normalise as the paper's
// Fig. 1(a)/2(a) do.
func measureThroughput(mcfg machine.Config, newGen core.GenFactory, seed uint64,
	n int, warmInstrs, measureInstrs uint64) (float64, []counters.Sample, error) {
	if n < 1 || n > mcfg.Cores {
		return 0, nil, fmt.Errorf("experiments: %d instances on %d cores", n, mcfg.Cores)
	}
	gens := make([]workload.Generator, n)
	for i := range gens {
		gens[i] = newGen(seed + uint64(i)*101)
	}
	iv, err := coRun(mcfg, machine.Fixed(warmInstrs), measureInstrs, gens...)
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
