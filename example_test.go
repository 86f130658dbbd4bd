package cachepirate_test

import (
	"fmt"

	"cachepirate"
	"cachepirate/internal/cache"
)

// smallMachine is the paper's 4-core Nehalem scaled down to a 64KB L3
// without prefetching; it keeps the examples fast.
func smallMachine() cachepirate.MachineConfig {
	mcfg := cachepirate.NehalemMachine()
	mcfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU}
	mcfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU}
	mcfg.L3 = cache.Config{Name: "L3", Size: 64 << 10, Ways: 16, LineSize: 64, Policy: cache.Nehalem}
	mcfg.NewPrefetcher = nil
	return mcfg
}

// ExampleProfile profiles a benchmark on a scaled-down machine and
// inspects the curve. (The default Config profiles the paper's full
// 8MB Nehalem; the small machine keeps the example fast.)
func ExampleProfile() {
	cfg := cachepirate.Config{
		Machine:            smallMachine(),
		Sizes:              []int64{16 << 10, 32 << 10, 48 << 10, 64 << 10},
		IntervalInstrs:     20_000,
		Cycles:             1,
		TargetWarmupInstrs: 10_000,
		Threads:            1,
	}
	curve, rep, err := cachepirate.Profile(cfg, cachepirate.Workload("microrand").New)
	if err != nil {
		panic(err)
	}

	fmt.Println("points:", len(curve.Points))
	fmt.Println("pirate threads:", rep.ThreadsUsed)
	full := curve.Points[len(curve.Points)-1]
	small := curve.Points[0]
	fmt.Println("full-cache point trusted:", full.Trusted)
	fmt.Println("less cache means more fetches:", small.FetchRatio > full.FetchRatio)
	// Output:
	// points: 4
	// pirate threads: 1
	// full-cache point trusted: true
	// less cache means more fetches: true
}

// ExampleProfileParallel pirates a Target that itself runs on several
// cores, the extension the paper's §III-C sketches. A two-rank
// shared-memory stencil (a banded grid, shared halos and global state,
// kept coherent between the ranks' private caches) runs on cores 0-1
// while the Pirate steals cache from cores 2-3. With Threads left at
// zero the safe-thread-count test runs first and judges each extra
// pirate thread by the ranks' aggregate CPI; the curve is the job's
// combined sensitivity to its shared-cache allocation.
func ExampleProfileParallel() {
	cfg := cachepirate.Config{
		Machine:            smallMachine(),
		Sizes:              []int64{16 << 10, 32 << 10, 48 << 10, 64 << 10},
		IntervalInstrs:     20_000,
		Cycles:             1,
		TargetWarmupInstrs: 10_000,
	}
	ranks := []int{0, 1}
	newRanks := func(seed uint64) ([]cachepirate.Generator, error) {
		return cachepirate.NewParallelWorkload(cachepirate.ParallelWorkloadConfig{
			Name:       "stencil",
			Ranks:      len(ranks),
			GridBytes:  96 << 10, // 1.5x the L3, a 48KB band per rank
			HaloBytes:  8 << 10,
			StateBytes: 8 << 10,
			Seed:       seed,
		})
	}
	curve, rep, err := cachepirate.ProfileParallel(cfg, ranks, newRanks)
	if err != nil {
		panic(err)
	}

	fmt.Println("points:", len(curve.Points))
	fmt.Println("per-rank CPIs:", len(rep.RankCPIs))
	fmt.Println("thread test ran:", len(rep.ThreadTestCPIs) > 0)
	fmt.Println("pirate threads on the free cores:", rep.ThreadsUsed >= 1 && rep.ThreadsUsed <= 2)
	full := curve.Points[len(curve.Points)-1]
	small := curve.Points[0]
	fmt.Println("less cache means more fetches:", small.FetchRatio > full.FetchRatio)
	// Output:
	// points: 4
	// per-rank CPIs: 2
	// thread test ran: true
	// pirate threads on the free cores: true
	// less cache means more fetches: true
}
