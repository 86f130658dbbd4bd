// Package counters is the performance-counter facade of the simulated
// machine. It plays the role the perfctr-patched kernel and the
// OFF_CORE_RSP_0 event play in the paper: the *only* window through
// which the measurement harness observes the Target and the Pirate.
// The harness never inspects simulator internals — it reads per-core
// event counts and derives CPI, fetch ratio, miss ratio and bandwidth,
// exactly as the real tool does. Every measured interval, in the
// Pirate rig and in every solo or co-run baseline, is one Interval
// call: read every core, run, read every core again.
package counters

// Sample is one core's cumulative event counts at a point in time.
type Sample struct {
	Instructions  uint64
	Cycles        uint64
	MemAccesses   uint64 // demand loads+stores issued by the core
	L3Accesses    uint64 // demand accesses that reached the shared L3
	L3Misses      uint64 // demand misses in the shared L3
	L3Fetches     uint64 // lines fetched from memory (incl. prefetches)
	L3Prefetches  uint64 // prefetcher-initiated fetches (subset of L3Fetches)
	MemReadBytes  uint64 // bytes read from DRAM
	MemWriteBytes uint64 // bytes written to DRAM
}

// Sub returns s - prev field-wise, the event counts of the interval
// between the two samples.
func (s Sample) Sub(prev Sample) Sample {
	return Sample{
		Instructions:  s.Instructions - prev.Instructions,
		Cycles:        s.Cycles - prev.Cycles,
		MemAccesses:   s.MemAccesses - prev.MemAccesses,
		L3Accesses:    s.L3Accesses - prev.L3Accesses,
		L3Misses:      s.L3Misses - prev.L3Misses,
		L3Fetches:     s.L3Fetches - prev.L3Fetches,
		L3Prefetches:  s.L3Prefetches - prev.L3Prefetches,
		MemReadBytes:  s.MemReadBytes - prev.MemReadBytes,
		MemWriteBytes: s.MemWriteBytes - prev.MemWriteBytes,
	}
}

// Add returns s + other field-wise.
func (s Sample) Add(other Sample) Sample {
	return Sample{
		Instructions:  s.Instructions + other.Instructions,
		Cycles:        s.Cycles + other.Cycles,
		MemAccesses:   s.MemAccesses + other.MemAccesses,
		L3Accesses:    s.L3Accesses + other.L3Accesses,
		L3Misses:      s.L3Misses + other.L3Misses,
		L3Fetches:     s.L3Fetches + other.L3Fetches,
		L3Prefetches:  s.L3Prefetches + other.L3Prefetches,
		MemReadBytes:  s.MemReadBytes + other.MemReadBytes,
		MemWriteBytes: s.MemWriteBytes + other.MemWriteBytes,
	}
}

// CPI returns cycles per instruction, or 0 when no instructions retired.
func (s Sample) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IPC returns instructions per cycle, or 0 when no cycles elapsed.
func (s Sample) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// FetchRatio returns L3 fetches (incl. prefetch) per memory access —
// the paper's central feedback metric (§I-B).
func (s Sample) FetchRatio() float64 {
	if s.MemAccesses == 0 {
		return 0
	}
	return float64(s.L3Fetches) / float64(s.MemAccesses)
}

// MissRatio returns demand L3 misses per memory access.
func (s Sample) MissRatio() float64 {
	if s.MemAccesses == 0 {
		return 0
	}
	return float64(s.L3Misses) / float64(s.MemAccesses)
}

// BandwidthGBs returns the off-chip bandwidth (reads + writebacks) this
// sample represents, in GB/s at the given core frequency.
func (s Sample) BandwidthGBs(freqHz float64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	bytesPerCycle := float64(s.MemReadBytes+s.MemWriteBytes) / float64(s.Cycles)
	return bytesPerCycle * freqHz / 1e9
}

// Source supplies cumulative per-core samples; the machine implements
// it.
type Source interface {
	// ReadCounters returns core's cumulative event counts.
	ReadCounters(core int) Sample
	// Cores returns the number of cores with counters.
	Cores() int
}

// Interval runs run and returns every core's events over it: sample c
// is core c's counts after run minus its counts before. It is the one
// way an interval is measured — a core that was suspended, or never
// attached, reads what it did in between, which is usually nothing. On
// run's error it returns that error and no samples.
func Interval(src Source, run func() error) ([]Sample, error) {
	s := make([]Sample, src.Cores())
	for c := range s {
		s[c] = src.ReadCounters(c)
	}
	if err := run(); err != nil {
		return nil, err
	}
	for c := range s {
		s[c] = src.ReadCounters(c).Sub(s[c])
	}
	return s, nil
}
