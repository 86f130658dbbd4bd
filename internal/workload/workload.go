// Package workload provides the synthetic benchmark suite that stands
// in for SPEC CPU2006 (and the Cigar application) in this reproduction.
//
// A workload is an infinite, deterministic stream of ops — NInstr plain
// instructions followed by one memory access — plus a memory-level
// parallelism (MLP) hint for the timing model. The suite in suite.go
// parameterises a small set of primitives (sequential streams, blocked
// reuse, uniform random, pointer chasing, hot/cold skew, phase
// composition) to mimic the qualitative memory behaviour of the
// applications the paper evaluates: where each CPI/fetch-ratio curve is
// flat or steep, where its working-set knees fall, and how hard the
// application "fights back" for cache space.
package workload

import "fmt"

// Op is one unit of work: NInstr non-memory instructions, then one
// access to Addr.
type Op struct {
	Addr   uint64
	NInstr uint32
	Write  bool
	// NonTemporal marks a streaming load that bypasses cache fills
	// (MOVNTDQA-style): it still hits resident lines and still costs
	// DRAM bandwidth on a miss, but leaves no cache footprint. The
	// Bandwidth Bandit uses it to steal bandwidth without stealing
	// cache.
	NonTemporal bool
}

// Generator produces an infinite deterministic op stream.
type Generator interface {
	// Next returns the next op.
	Next() Op
	// Reset restarts the stream with the given seed.
	Reset(seed uint64)
	// Name identifies the generator.
	Name() string
	// MLP is the memory-level parallelism hint for the timing model:
	// how many long-latency accesses the core can overlap.
	MLP() float64
	// WorkingSet returns the nominal working-set size in bytes.
	WorkingSet() int64
}

// LineSize is the cache-line granularity the generators assume.
const LineSize = 64

// validateSpan panics when a generator is built over a non-positive
// address span; generators share it as a constructor guard.
func validateSpan(name string, span int64) {
	if span <= 0 {
		panic(fmt.Sprintf("workload %s: non-positive span %d", name, span))
	}
}
