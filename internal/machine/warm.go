package machine

import (
	"fmt"
	"math"

	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
)

// Warm is a warm-up rule for Machine.Warm, built by Fixed or Stable;
// two values stating the same rule compare equal.
type Warm struct {
	n      uint64 // Fixed's length, Stable's chunk
	stable bool
}

// Fixed runs each listed core, in order, until it has retired n
// instructions past the first listed core's count at the call; a core
// already there does not run. On one core it is RunInstructions(core,
// n). One floor, rather than one increment each, keeps later co-runners
// from getting extra runtime: under min-clock scheduling they advance
// with the first, so when they run as fast as it they have little or
// nothing left to run. A slower later core is the opposite case: while
// it climbs to the floor the first core keeps running too, far past it.
// In TestWarm, bringing a cold 6MB scan on core 1 up by 40k
// instructions ran the 1KB loop on core 0 about 1.18M (Fixed(0) over
// cores 0 and 1), so such a pair enters its interval at very different
// instruction counts (ext4's pairs; ROADMAP item 29, step 2).
func Fixed(n uint64) Warm { return Warm{n: n} }

// Stable runs the first listed core in chunk-long intervals until,
// between two chunks, its fetch ratio moves by at most 10% + 0.001 and
// its L3 occupancy grows by at most 2% + 4KB, or for 12 chunks.
// Fetch-ratio stability alone cannot tell steady capacity misses from a
// steady cold scan (a 6MB sweep fetches at a constant rate for its
// whole first pass); occupancy growth can.
func Stable(chunk uint64) Warm { return Warm{n: chunk, stable: true} }

const (
	stableMaxChunks                  = 12
	stableFetchTol, stableFetchSlack = 0.1, 0.001
	stableOccDiv, stableOccSlack     = 50, 4096
)

// Warm runs w on the listed cores; the first paces it. A first core
// that is not runnable is an error, as it is for RunInstructions.
func (m *Machine) Warm(w Warm, cores ...int) error {
	if len(cores) == 0 {
		return fmt.Errorf("machine: warm-up lists no cores")
	}
	first := cores[0]
	if w.stable {
		return m.runStable(first, w.n)
	}
	floor := m.cores[first].instrs + w.n
	if err := m.RunInstructions(first, w.n); err != nil {
		return err
	}
	for _, c := range cores[1:] {
		if cur := m.cores[c].instrs; cur < floor {
			if err := m.RunInstructions(c, floor-cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStable is Stable(chunk) on core.
func (m *Machine) runStable(core int, chunk uint64) error {
	prevFR, prevOcc := -1.0, int64(-1)
	for i := 0; i < stableMaxChunks; i++ {
		iv, err := counters.Interval(m, func() error { return m.RunInstructions(core, chunk) })
		if err != nil {
			return err
		}
		fr := iv[core].FetchRatio()
		occ := m.hier.L3().ResidentBytes(cache.Owner(core))
		if prevFR >= 0 &&
			math.Abs(fr-prevFR) <= float64(stableFetchTol*max(fr, prevFR))+stableFetchSlack &&
			occ <= prevOcc+prevOcc/stableOccDiv+stableOccSlack {
			return nil
		}
		prevFR, prevOcc = fr, occ
	}
	return nil
}
