// Package bandit implements the Bandwidth Bandit, the extension the
// paper's §VI sketches ("extending this approach to collect
// performance data against other shared resources") and which the
// authors later published as follow-on work: measuring a Target
// application's performance as a function of the *off-chip bandwidth*
// available to it.
//
// Where the Pirate steals cache capacity while deliberately consuming
// no bandwidth, the Bandit does the opposite: its threads stream over
// a span far larger than the L3 so every access fetches from DRAM,
// and an instruction-pacing knob modulates how many GB/s they soak
// up. Performance counters again close the loop: the Bandit's own
// achieved bandwidth is measured per interval, so each sample is
// tagged with how much bandwidth the Target actually had left, not
// how much we hoped to take.
package bandit

import (
	"fmt"
	"sort"

	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

// Streamer is the Bandit's access pattern: a paced linear sweep over a
// huge span. Pace is the number of plain instructions between
// accesses; 0 is maximum pressure. The span (default 512MB) never
// fits any cache, so every access is a DRAM fetch.
type Streamer struct {
	base uint64
	span int64
	pos  int64
	pace uint32
}

// NewStreamer builds a bandit thread's generator.
func NewStreamer(base uint64, span int64) *Streamer {
	if span <= 0 {
		span = 512 << 20
	}
	return &Streamer{base: base, span: span / workload.LineSize * workload.LineSize}
}

// SetPace changes the instruction gap between accesses.
func (s *Streamer) SetPace(pace uint32) { s.pace = pace }

// Next returns the next op: one line-granular read per pace
// instructions.
func (s *Streamer) Next() workload.Op {
	a := s.base + uint64(s.pos)
	s.pos += workload.LineSize
	if s.pos >= s.span {
		s.pos = 0
	}
	// Non-temporal: pure bandwidth pressure, no cache footprint.
	return workload.Op{NInstr: s.pace, Addr: a, NonTemporal: true}
}

// Reset rewinds the sweep.
func (s *Streamer) Reset(uint64) { s.pos = 0 }

// Name identifies the generator.
func (s *Streamer) Name() string { return "bandit" }

// MLP returns the overlap hint: bandit streams overlap fully.
func (s *Streamer) MLP() float64 { return 8 }

// WorkingSet returns the streamed span.
func (s *Streamer) WorkingSet() int64 { return s.span }

// Point is one measurement: Target metrics with a given amount of
// off-chip bandwidth left to it.
type Point struct {
	// Pace is the bandit pacing that produced this point.
	Pace uint32
	// BanditGBs is the bandwidth the bandit threads actually consumed
	// during the measurement (counter-verified, like the Pirate's
	// fetch ratio).
	BanditGBs float64
	// AvailableGBs is the system maximum minus BanditGBs.
	AvailableGBs float64
	// TargetCPI, TargetGBs and TargetFetchRatio are the Target's
	// metrics for the interval.
	TargetCPI        float64
	TargetGBs        float64
	TargetFetchRatio float64
	// BanditCacheBytes is the L3 capacity the bandit's dead lines
	// occupied (sampled) — the side effect the Bandit cannot fully
	// avoid, reported so users can judge measurement purity.
	BanditCacheBytes int64
}

// Curve is a bandwidth-sensitivity profile, sorted by AvailableGBs
// ascending.
type Curve struct {
	Name   string
	MaxGBs float64
	Points []Point
}

// targetCore is the core the Target runs on; a bandit thread runs on
// every other core.
const targetCore = 0

// Config parameterises a Bandit profiling run.
type Config struct {
	// Machine defaults to machine.NehalemConfig(). It needs at least
	// two cores: the Target on core 0 and a bandit thread on each other.
	Machine machine.Config
	// Paces are the pacing levels to sweep, highest pressure first.
	// Default: {0, 8, 32, 64, 128, 256, 512}.
	Paces []uint32
	// IntervalInstrs is the measurement window in Target instructions
	// (default 150k); WarmupInstrs runs before each measurement
	// (default 150k).
	IntervalInstrs uint64
	WarmupInstrs   uint64
	// Seed seeds the Target.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Machine.Cores == 0 {
		c.Machine = machine.NehalemConfig()
	}
	if len(c.Paces) == 0 {
		// Spread from full pressure (0) to a light touch: with three
		// bandit threads on the Nehalem model, pace 512 consumes
		// ~2 GB/s and pace 0 saturates the controller.
		c.Paces = []uint32{0, 8, 32, 64, 128, 256, 512}
	}
	if c.IntervalInstrs == 0 {
		c.IntervalInstrs = 150_000
	}
	if c.WarmupInstrs == 0 {
		c.WarmupInstrs = 150_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Machine.Cores < 2 {
		return fmt.Errorf("bandit: %d-core machine leaves no core for a bandit thread", c.Machine.Cores)
	}
	return nil
}

// Profile sweeps the bandit's pacing from idle (no bandit) through the
// configured pressure levels and returns the Target's metrics as a
// function of the off-chip bandwidth left to it.
func Profile(cfg Config, newGen func(seed uint64) workload.Generator) (*Curve, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	if err := m.Attach(targetCore, newGen(cfg.Seed)); err != nil {
		return nil, err
	}
	var streamers []*Streamer
	for bc := targetCore + 1; bc < cfg.Machine.Cores; bc++ {
		s := NewStreamer(0, 0) // per-core machine offsets isolate them
		if err := m.Attach(bc, s); err != nil {
			return nil, err
		}
		m.Suspend(bc)
		streamers = append(streamers, s)
	}
	maxGBs := cfg.Machine.DRAM.BytesPerCycle * cfg.Machine.CPU.FreqHz / 1e9
	curve := &Curve{Name: "bandit", MaxGBs: maxGBs}

	measure := func(pace uint32, active bool) (Point, error) {
		if err := m.RunInstructions(targetCore, cfg.WarmupInstrs); err != nil {
			return Point{}, err
		}
		iv, err := counters.Interval(m, func() error { return m.RunInstructions(targetCore, cfg.IntervalInstrs) })
		if err != nil {
			return Point{}, err
		}
		ts := iv[targetCore]
		var bgbs float64
		var occ int64
		for bc := targetCore + 1; bc < cfg.Machine.Cores; bc++ {
			if active {
				bgbs += iv[bc].BandwidthGBs(cfg.Machine.CPU.FreqHz)
			}
			occ += m.Hierarchy().L3().ResidentBytes(cache.Owner(bc))
		}
		avail := maxGBs - bgbs
		if avail < 0 {
			avail = 0
		}
		return Point{
			Pace:             pace,
			BanditGBs:        bgbs,
			AvailableGBs:     avail,
			TargetCPI:        ts.CPI(),
			TargetGBs:        ts.BandwidthGBs(cfg.Machine.CPU.FreqHz),
			TargetFetchRatio: ts.FetchRatio(),
			BanditCacheBytes: occ,
		}, nil
	}

	// Baseline: no bandit.
	p, err := measure(0, false)
	if err != nil {
		return nil, err
	}
	curve.Points = append(curve.Points, p)

	// Pressure sweep, gentlest first so available bandwidth decreases
	// monotonically along the run.
	paces := append([]uint32(nil), cfg.Paces...)
	sort.Slice(paces, func(i, j int) bool { return paces[i] > paces[j] })
	for bc := targetCore + 1; bc < cfg.Machine.Cores; bc++ {
		m.Resume(bc)
	}
	for _, pace := range paces {
		for _, s := range streamers {
			s.SetPace(pace)
		}
		p, err := measure(pace, true)
		if err != nil {
			return nil, err
		}
		curve.Points = append(curve.Points, p)
	}
	sort.Slice(curve.Points, func(i, j int) bool {
		return curve.Points[i].AvailableGBs < curve.Points[j].AvailableGBs
	})
	return curve, nil
}
