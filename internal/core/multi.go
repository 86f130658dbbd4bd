package core

import (
	"fmt"

	"cachepirate/internal/analysis"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// This file implements the multithreaded-Target extension the paper
// sketches in §III-C: "For multithreaded Targets it is important to
// consider the aggregate bandwidth of the Target threads when deciding
// how many Pirate threads to run. While we believe this is a
// straightforward extension, we have not investigated it for this
// work." Here it is: the Target occupies several cores (one rank per
// core, disjoint address spaces — a data-parallel job), measurements
// aggregate over the ranks, and the safe-thread-count test compares
// *aggregate* CPI so a bandwidth-hungry rank on any core vetoes the
// extra pirate thread.

// ProfileMulti captures a metric curve for a Target running one
// private-address-space rank on each of targetCores ("share-nothing"
// data parallelism, e.g. MPI ranks). newGen builds rank i's workload
// from (seed + 137i). The returned curve reports aggregate metrics:
// aggregate CPI is total cycles over total instructions, bandwidth and
// event ratios sum over ranks; the report adds each rank's CPI.
func ProfileMulti(cfg Config, targetCores []int, newGen GenFactory) (*analysis.Curve, *Report, error) {
	return profileRanks(cfg, targetCores, eachCore(newGen))
}

// ProfileParallel captures a metric curve for a shared-memory
// multithreaded Target: newRanks builds one generator per rank over a
// single shared address space (e.g. workload.NewParallel), and the
// ranks attach with machine.AttachShared so their writes generate
// coherence traffic. Metrics aggregate across ranks as in ProfileMulti.
// Like a GenFactory, newRanks must be safe for concurrent calls: the
// thread-count test builds its machines from pool workers.
func ProfileParallel(cfg Config, targetCores []int,
	newRanks func(seed uint64) ([]workload.Generator, error)) (*analysis.Curve, *Report, error) {
	return profileRanks(cfg, targetCores, func(m *machine.Machine, cores []int, seed uint64) error {
		gens, err := newRanks(seed)
		if err != nil {
			return err
		}
		if len(gens) != len(cores) {
			return fmt.Errorf("core: %d rank generators for %d cores", len(gens), len(cores))
		}
		for i, c := range cores {
			if err := m.AttachShared(c, 1, gens[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// profileRanks runs the schedule on a Target of one rank per listed
// core.
func profileRanks(cfg Config, cores []int, attach attacher) (*analysis.Curve, *Report, error) {
	if len(cores) == 0 {
		return nil, nil, fmt.Errorf("core: no target cores")
	}
	cfg, tgt, err := resolve(cfg, cores, attach)
	if err != nil {
		return nil, nil, err
	}
	return scheduleCurve(cfg, tgt, "pirate-multi")
}
