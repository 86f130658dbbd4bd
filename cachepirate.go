// Package cachepirate is a Go reproduction of "Cache Pirating:
// Measuring the Curse of the Shared Cache" (Eklov, Nikoleris,
// Black-Schaffer, Hagersten — ICPP 2011).
//
// Cache Pirating measures a Target application's performance (CPI),
// off-chip bandwidth (GB/s), miss ratio and fetch ratio as a function
// of the shared last-level cache capacity available to it. It co-runs
// the Target with a Pirate — a multithreaded linear scanner that
// "steals" cache ways by keeping its working set resident in the
// shared cache — and reads only hardware performance counters. The
// Pirate's own fetch ratio proves, online, that it really holds the
// requested footprint; a safe-thread-count test keeps it from
// saturating the shared L3 bandwidth; and dynamic working-set
// adjustment captures the entire curve from a single Target execution
// at a few percent overhead.
//
// Because the original runs on bare-metal Nehalem hardware with a
// patched kernel, this reproduction supplies the machine as a
// deterministic software substrate (see DESIGN.md): a 4-core system
// with private L1/L2, a shared inclusive L3 implementing the paper's
// accessed-bit replacement policy, stream prefetchers, and
// finite-bandwidth DRAM and L3 ports. The measurement harness observes
// it only through the simulated performance counters, preserving the
// paper's methodology end to end.
//
// Quick start:
//
//	spec := cachepirate.Workload("omnetpp")
//	curve, rep, err := cachepirate.Profile(cachepirate.Config{}, spec.New)
//	// curve.Points: CPI / GB/s / fetch ratio / miss ratio per cache size
//	// rep.ThreadsUsed: pirate threads chosen by the §III-C safety test
//
// ExampleProfile and ExampleProfileParallel are runnable examples;
// cmd/pirate profiles one benchmark from the command line, and
// cmd/experiments regenerates every table and figure in the paper.
package cachepirate

import (
	"cachepirate/internal/analysis"
	"cachepirate/internal/bandit"
	"cachepirate/internal/core"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// Core measurement types, re-exported from the implementation
// packages.
type (
	// Config parameterises a profiling run; the zero value measures 16
	// cache sizes on the paper's Nehalem machine with auto-detected
	// pirate threads.
	Config = core.Config
	// Report carries run metadata (threads chosen, instructions, wall
	// cycles).
	Report = core.Report
	// GenFactory builds a fresh Target workload from a seed.
	GenFactory = core.GenFactory
	// Curve is a per-benchmark set of measurements sorted by cache
	// size.
	Curve = analysis.Curve
	// Point is one measurement: Target metrics at one cache size, plus
	// the Pirate fetch ratio that validates it.
	Point = analysis.Point
	// MachineConfig describes the simulated system.
	MachineConfig = machine.Config
	// WorkloadSpec is one entry of the synthetic benchmark suite.
	WorkloadSpec = workload.Spec
	// Generator is an infinite deterministic op stream.
	Generator = workload.Generator
	// StealResult reports how much cache the Pirate held (Table II).
	StealResult = core.StealResult
	// OverheadReport quantifies profiling cost (Table III).
	OverheadReport = core.OverheadReport
	// ScalingPrediction is the §I-A throughput model's output.
	ScalingPrediction = analysis.ScalingPrediction
	// MultiReport is the ProfileMulti run report with per-rank CPIs.
	MultiReport = core.MultiReport
	// BanditConfig parameterises a Bandwidth Bandit run (the §VI
	// extension: performance vs available off-chip bandwidth).
	BanditConfig = bandit.Config
	// BanditCurve is a bandwidth-sensitivity profile.
	BanditCurve = bandit.Curve
	// BanditPoint is one bandwidth-sensitivity measurement.
	BanditPoint = bandit.Point
)

// Profile captures a full metric curve from a single Target execution
// using dynamic working-set adjustment (Fig. 5). It is the main entry
// point of the library.
func Profile(cfg Config, newGen GenFactory) (*Curve, *Report, error) {
	return core.Profile(cfg, newGen)
}

// ProfileFixed measures a single cache size with a fixed-size Pirate —
// the one-execution-per-size baseline methodology.
func ProfileFixed(cfg Config, newGen GenFactory, size int64, threads int) (Point, error) {
	return core.ProfileFixed(cfg, newGen, size, threads)
}

// MeasureOverhead profiles and then re-runs the Target alone,
// returning the execution-time overhead of the measurement (Table III:
// 5.5% on the paper's system).
func MeasureOverhead(cfg Config, newGen GenFactory) (*Curve, *Report, OverheadReport, error) {
	return core.MeasureOverhead(cfg, newGen)
}

// DetermineThreads runs the §III-C safe-thread-count test and returns
// the chosen pirate thread count plus the Target CPIs observed with
// 1..N threads.
func DetermineThreads(cfg Config, newGen GenFactory) (int, []float64, error) {
	return core.DetermineThreads(cfg, newGen)
}

// MaxStealable sweeps the Pirate's working set upward and returns the
// largest amount it can steal from the Target with its fetch ratio
// under the trust threshold (Table II).
func MaxStealable(cfg Config, newGen GenFactory, threads int) (StealResult, error) {
	return core.MaxStealable(cfg, newGen, threads)
}

// PredictScaling applies the §I-A model: n co-running instances each
// get an equal share of the L3 and run at the curve's CPI for that
// share, throttled when their aggregate bandwidth demand exceeds
// maxBWGBs.
func PredictScaling(curve *Curve, n int, l3Bytes int64, maxBWGBs float64) (ScalingPrediction, error) {
	return analysis.PredictScaling(curve, n, l3Bytes, maxBWGBs)
}

// ProfileMulti profiles a multithreaded Target: one rank per listed
// core, metrics aggregated across ranks, and the thread-safety test
// applied to the ranks' aggregate CPI (the extension §III-C sketches).
func ProfileMulti(cfg Config, targetCores []int, newGen GenFactory) (*Curve, *MultiReport, error) {
	return core.ProfileMulti(cfg, targetCores, newGen)
}

// ProfileParallel profiles a shared-memory multithreaded Target: one
// generator per rank (e.g. from NewParallelWorkload) over a single
// shared address space, with write-invalidate coherence between the
// ranks' private caches.
func ProfileParallel(cfg Config, targetCores []int,
	newRanks func(seed uint64) ([]Generator, error)) (*Curve, *MultiReport, error) {
	return core.ProfileParallel(cfg, targetCores, newRanks)
}

// NewParallelWorkload builds a data-parallel shared-memory job: each
// rank sweeps its band of a shared grid, touches halo strips shared
// with its neighbour, and hits a global state region (writes there
// generate coherence traffic).
func NewParallelWorkload(cfg ParallelWorkloadConfig) ([]Generator, error) {
	return workload.NewParallel(cfg)
}

// ParallelWorkloadConfig parameterises NewParallelWorkload.
type ParallelWorkloadConfig = workload.ParallelConfig

// ProfileBandwidth runs the Bandwidth Bandit (§VI future work):
// Target metrics as a function of the off-chip bandwidth left to it,
// swept by pacing bandwidth-eating co-runner threads.
func ProfileBandwidth(cfg BanditConfig, newGen GenFactory) (*BanditCurve, error) {
	return bandit.Profile(cfg, newGen)
}

// NehalemMachine returns the paper's Table I evaluation system: 4
// cores at 2.27 GHz, 32KB/8-way L1s, 256KB/8-way L2s, an 8MB/16-way
// shared inclusive L3 with the accessed-bit replacement policy, stream
// prefetchers, 10.4 GB/s DRAM and a 68 GB/s L3 port.
func NehalemMachine() MachineConfig { return machine.NehalemConfig() }

// NehalemMachineNoPrefetch is NehalemMachine with hardware prefetching
// disabled (Fig. 9).
func NehalemMachineNoPrefetch() MachineConfig { return machine.NehalemConfigNoPrefetch() }

// Workloads returns the synthetic benchmark suite that stands in for
// SPEC CPU2006 and Cigar (see DESIGN.md for the per-benchmark
// substitution rationale).
func Workloads() []WorkloadSpec { return workload.Suite() }

// Workload returns the named suite benchmark, panicking on unknown
// names. Use Workloads to enumerate valid names.
func Workload(name string) WorkloadSpec { return workload.MustByName(name) }
