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

// MultiReport extends Report with per-rank detail.
type MultiReport struct {
	Report
	// RankCPIs are each rank's CPI over the run's last interval (the
	// smallest size of the last cycle), for balance diagnostics.
	RankCPIs []float64
}

// ProfileMulti captures a metric curve for a Target running one
// private-address-space rank on each of targetCores ("share-nothing"
// data parallelism, e.g. MPI ranks). newGen builds rank i's workload
// from (seed + rank). The returned curve reports aggregate metrics:
// aggregate CPI is total cycles over total instructions, bandwidth and
// event ratios sum over ranks.
func ProfileMulti(cfg Config, targetCores []int, newGen GenFactory) (*analysis.Curve, *MultiReport, error) {
	cfg, tgt, err := rankTarget(cfg, targetCores, attachRanks(targetCores, newGen, cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	return scheduleCurve(cfg, tgt, "pirate-multi")
}

// ProfileParallel captures a metric curve for a shared-memory
// multithreaded Target: newRanks builds one generator per rank over a
// single shared address space (e.g. workload.NewParallel), and the
// ranks attach with machine.AttachShared so their writes generate
// coherence traffic. Metrics aggregate across ranks as in ProfileMulti.
// Like a GenFactory, newRanks must be safe for concurrent calls: the
// thread-count test builds its machines from pool workers.
func ProfileParallel(cfg Config, targetCores []int,
	newRanks func(seed uint64) ([]workload.Generator, error)) (*analysis.Curve, *MultiReport, error) {
	seed := cfg.Seed // as given, not defaulted: see attachRanks
	cfg, tgt, err := rankTarget(cfg, targetCores, func(m *machine.Machine) error {
		gens, err := newRanks(seed)
		if err != nil {
			return err
		}
		if len(gens) != len(targetCores) {
			return fmt.Errorf("core: %d rank generators for %d cores", len(gens), len(targetCores))
		}
		for i, tc := range targetCores {
			if err := m.AttachShared(tc, 1, gens[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return scheduleCurve(cfg, tgt, "pirate-multi")
}

// DetermineThreadsMulti is the §III-C safety test with a
// multithreaded Target: the *aggregate* CPI across ranks decides
// whether an extra pirate thread distorts the measurement.
func DetermineThreadsMulti(cfg Config, targetCores []int, newGen GenFactory) (int, []float64, error) {
	cfg, tgt, err := rankTarget(cfg, targetCores, attachRanks(targetCores, newGen, cfg.Seed))
	if err != nil {
		return 0, nil, err
	}
	return scanThreads(cfg, tgt)
}

// attachRanks attaches one workload instance per rank core, seeded per
// rank so ranks are decorrelated. The seed is the caller's as given: a
// zero Seed reaches the ranks as zero, where a one-core Target gets the
// default 1 — defaulting it here would move every many-rank number
// measured with the zero Config.
func attachRanks(cores []int, newGen GenFactory, seed uint64) func(*machine.Machine) error {
	return func(m *machine.Machine) error {
		for i, tc := range cores {
			if err := m.Attach(tc, newGen(seed+uint64(i)*137)); err != nil {
				return err
			}
		}
		return nil
	}
}
