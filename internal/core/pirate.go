// Package core implements Cache Pirating, the paper's contribution: a
// measurement harness that quantifies a Target application's
// performance (CPI), off-chip bandwidth, miss ratio and fetch ratio as
// a function of the shared cache capacity available to it, by
// co-running a cache-stealing Pirate and reading only performance
// counters.
//
// The package provides the Pirate itself (a multithreaded linear
// scanner whose working set is adjusted at run time, §II-B/§II-C), the
// fetch-ratio feedback that validates every measurement (§II-A), the
// safe-thread-count test (§III-C), and Profile — the dynamic
// working-set-adjustment schedule of Fig. 5 that captures a full curve
// from a single Target execution at a few percent overhead.
package core

import (
	"fmt"

	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// Scanner is the Pirate's access pattern: a linear sweep over a
// contiguous working set with a stride of one cache line, issued at
// the highest possible rate (no compute between accesses). §II-B1
// shows this keeps the "oldest" line most recently used, which is the
// most effective way to retain the working set, and it is maximally
// prefetcher-friendly with a negligible code footprint.
//
// The span can be adjusted while running (dynamic working-set
// adjustment); SetSpan keeps the cursor in range.
type Scanner struct {
	base uint64
	span int64
	pos  int64
	mlp  float64
}

// NewScanner builds a pirate scanner at the given address-space base.
// The span starts at zero; use SetSpan before running.
func NewScanner(base uint64) *Scanner {
	// MLP 5 calibrates one pirate thread to ~13 bytes/cycle of L3
	// bandwidth, so two threads use ~85% of the 68 GB/s L3 port — the
	// paper's 56-of-68 GB/s two-thread figure (§III-C).
	return &Scanner{base: base, mlp: 5}
}

// SetSpan changes the scanned working set size (rounded down to whole
// lines; negative values clamp to zero).
func (s *Scanner) SetSpan(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	s.span = bytes / workload.LineSize * workload.LineSize
	if s.pos >= s.span {
		s.pos = 0
	}
}

// Span returns the current working-set size in bytes.
func (s *Scanner) Span() int64 { return s.span }

// Next returns the next op: one read per line, no plain instructions.
func (s *Scanner) Next() workload.Op {
	if s.span == 0 {
		// A zero-span pirate thread should be suspended; touching the
		// base line keeps the contract total if it ever runs.
		return workload.Op{Addr: s.base}
	}
	a := s.base + uint64(s.pos)
	s.pos += workload.LineSize
	if s.pos >= s.span {
		s.pos = 0
	}
	return workload.Op{Addr: a}
}

// Reset rewinds the sweep (the seed is ignored; the pattern is fixed).
func (s *Scanner) Reset(uint64) { s.pos = 0 }

// Name identifies the generator.
func (s *Scanner) Name() string { return "pirate" }

// MLP returns the scanner's overlap hint: linear scans overlap well.
func (s *Scanner) MLP() float64 { return s.mlp }

// WorkingSet returns the current span.
func (s *Scanner) WorkingSet() int64 { return s.span }

// Pirate manages one scanner thread per pirate core and distributes
// the total stolen working set across the active threads (§II-C2: the
// threads access disjoint parts of the working set and are pinned to
// cores the Target does not use).
type Pirate struct {
	m        *machine.Machine
	cores    []int
	scanners []*Scanner
	threads  int
	wss      int64
	quantum  int64 // span granularity: the L3 way size, so every set loses whole ways
	naive    bool
}

// NewPirate attaches suspended scanner threads to the given cores.
func NewPirate(m *machine.Machine, cores []int) (*Pirate, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("core: pirate needs at least one core")
	}
	// The working set is distributed in whole multiples of the L3's
	// way size (sets x line size). A linear scan over such a span
	// covers every set the same number of times, so the Pirate steals
	// the same number of ways in every set — §II-B1's requirement.
	// Uneven coverage leaves hot sets where the Target evicts the
	// Pirate and the fetch-ratio feedback degrades.
	l3 := m.Config().L3
	p := &Pirate{m: m, cores: cores, threads: 1, quantum: l3.Size / int64(l3.Ways)}
	for _, c := range cores {
		s := NewScanner(0) // per-core machine offsets keep threads disjoint
		if err := m.Attach(c, s); err != nil {
			return nil, err
		}
		m.Suspend(c)
		p.scanners = append(p.scanners, s)
	}
	return p, nil
}

// WSS returns the total working set currently stolen.
func (p *Pirate) WSS() int64 { return p.wss }

// SetNaiveSplit switches SetWSS to a plain equal byte split across
// threads instead of way-granular quanta. Only the abl1 ablation uses
// it: uneven per-set coverage degrades the Pirate, which is the point
// being demonstrated.
func (p *Pirate) SetNaiveSplit(naive bool) { p.naive = naive }

// SetWSS distributes a total working set of bytes (rounded to whole
// way-size quanta) across the first threads scanners and suspends the
// rest. A zero working set suspends every thread.
func (p *Pirate) SetWSS(bytes int64, threads int) error {
	if threads < 1 || threads > len(p.cores) {
		return fmt.Errorf("core: thread count %d out of [1,%d]", threads, len(p.cores))
	}
	if bytes < 0 {
		return fmt.Errorf("core: negative pirate working set %d", bytes)
	}
	if p.naive {
		return p.setWSSNaive(bytes, threads)
	}
	quanta := (bytes + p.quantum/2) / p.quantum
	p.wss = quanta * p.quantum
	p.threads = threads
	base := quanta / int64(threads)
	extra := quanta % int64(threads)
	for i := range p.scanners {
		q := base
		if int64(i) < extra {
			q++
		}
		if quanta == 0 || i >= threads || q == 0 {
			p.scanners[i].SetSpan(0)
			p.m.Suspend(p.cores[i])
			continue
		}
		p.scanners[i].SetSpan(q * p.quantum)
		p.m.Resume(p.cores[i])
	}
	return nil
}

// setWSSNaive is the ablation variant: equal byte split, no way
// alignment.
func (p *Pirate) setWSSNaive(bytes int64, threads int) error {
	p.wss = bytes
	p.threads = threads
	per := bytes / int64(threads) / workload.LineSize * workload.LineSize
	rem := bytes - per*int64(threads)
	for i := range p.scanners {
		switch {
		case bytes == 0 || i >= threads:
			p.scanners[i].SetSpan(0)
			p.m.Suspend(p.cores[i])
		case i == 0:
			p.scanners[i].SetSpan(per + rem/workload.LineSize*workload.LineSize)
			p.m.Resume(p.cores[i])
		default:
			p.scanners[i].SetSpan(per)
			p.m.Resume(p.cores[i])
		}
	}
	return nil
}

// Suspend halts every pirate thread (cache contents stay).
func (p *Pirate) Suspend() {
	for _, c := range p.cores {
		p.m.Suspend(c)
	}
}

// Resume restarts the active threads (those with a non-zero span).
func (p *Pirate) Resume() {
	for i, c := range p.cores {
		if p.scanners[i].Span() > 0 {
			p.m.Resume(c)
		}
	}
}

// Warm runs the pirate threads (the caller should have suspended the
// Target) until each has swept its working set the given number of
// times, bringing the full footprint into the shared cache without
// competition — the warm-up step of Fig. 5.
//
// It asks each thread in turn for passes more sweeps, and the machine
// keeps every other runnable thread stepping meanwhile, so with T
// active threads each sweeps about T*passes times, not passes: over
// the 15 growth steps of a default two-thread Profile that is 4.13M
// warm accesses where two passes per thread need 1.97M — 38% of the
// run's host time, and simulated cycles that count towards the
// profiling overhead MeasureOverhead reports. Warming all threads to a
// common target instead would be cheaper and would change every
// simulated statistic downstream of it (the curves, WallCycles, the
// harness's pinned digests), so it is left for a change that may re-pin
// them (ROADMAP item 2); TestProfileGolden holds today's behaviour. The
// harness calls Warm from one place, rig.steal: that is where to warm
// only the span a growth step added, or to end a warm-up on the
// Pirate's fetch ratio instead of a pass count.
func (p *Pirate) Warm(passes int) error {
	if passes < 1 {
		passes = 1
	}
	for i, c := range p.cores {
		span := p.scanners[i].Span()
		if span == 0 {
			continue
		}
		// One access per line, one instruction per access.
		n := uint64(span/workload.LineSize) * uint64(passes)
		if err := p.m.RunInstructions(c, n); err != nil {
			return fmt.Errorf("core: warming pirate thread %d: %w", i, err)
		}
	}
	return nil
}
