// Package cpu models the timing of one in-order core with miss
// overlap. It converts the path a memory access took through the cache
// hierarchy (internal/cache.Outcome) plus any shared-resource queueing
// delays into cycles, and keeps the per-core instruction/cycle clocks
// the performance-counter facade exposes.
//
// The model is deliberately first-order, in the spirit of the interval
// models the paper cites ([14], [18]): CPI is a base (pipeline) CPI
// plus memory stall cycles, with stalls beyond the L1 divided by the
// workload's memory-level parallelism (MLP). That single knob is what
// separates bandwidth-compensating streaming applications (high MLP,
// flat CPI curves — 470.lbm in Fig. 8) from latency-bound pointer
// chasers (MLP ≈ 1, steep CPI curves — 429.mcf).
package cpu

import (
	"fmt"

	"cachepirate/internal/cache"
)

// Params are the timing parameters of a core.
type Params struct {
	// BaseCPI is the cycles per non-memory instruction with a perfect
	// L1 (superscalar issue makes this < 1).
	BaseCPI float64
	// L1Cost is the extra cycles charged for an L1 hit (mostly
	// pipelined, so small, and not divided by MLP).
	L1Cost float64
	// L2Cost and L3Cost are the extra cycles for hits in those levels;
	// both are divided by the workload MLP.
	L2Cost float64
	L3Cost float64
	// PrefetchHitCost is charged instead of L3Cost when the access is
	// served by a line a prefetcher brought in: the fetch latency
	// overlapped with earlier execution.
	PrefetchHitCost float64
	// FreqHz converts cycles to wall time for GB/s figures.
	FreqHz float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.BaseCPI <= 0 {
		return fmt.Errorf("cpu: BaseCPI must be positive, got %g", p.BaseCPI)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"L1Cost", p.L1Cost}, {"L2Cost", p.L2Cost}, {"L3Cost", p.L3Cost},
		{"PrefetchHitCost", p.PrefetchHitCost},
	} {
		if v.val < 0 {
			return fmt.Errorf("cpu: %s must be non-negative, got %g", v.name, v.val)
		}
	}
	if p.FreqHz <= 0 {
		return fmt.Errorf("cpu: FreqHz must be positive, got %g", p.FreqHz)
	}
	return nil
}

// DefaultParams returns timing calibrated against the paper's Nehalem
// E5520 test system (2.27 GHz).
func DefaultParams() Params {
	return Params{
		BaseCPI:         0.4,
		L1Cost:          0.5,
		L2Cost:          6,
		L3Cost:          20,
		PrefetchHitCost: 8,
		FreqHz:          2.27e9,
	}
}

// AccessCost returns the stall cycles to charge for one demand access
// with the given hierarchy outcome. memDelay is the DRAM delay
// relevant to this access: the full latency (base + queueing +
// service) for an L3 miss, or just the controller's queueing backlog
// for a prefetch hit — when DRAM saturates, prefetched data stops
// arriving ahead of demand, which is what throttles streaming
// workloads to the off-chip bandwidth (the paper's §I-A "87% of
// required bandwidth ⇒ 87% of performance" effect). l3Queue is the
// queueing delay at the shared L3 port. mlp is the workload's
// memory-level parallelism (values < 1 are treated as 1).
func AccessCost(p Params, out cache.Outcome, memDelay, l3Queue, mlp float64) float64 {
	if mlp < 1 {
		mlp = 1
	}
	switch out.ServedBy {
	case cache.LevelL1:
		return p.L1Cost
	case cache.LevelL2:
		return p.L1Cost + p.L2Cost/mlp
	case cache.LevelL3:
		if out.PrefetchHit {
			return p.L1Cost + (p.PrefetchHitCost+l3Queue+memDelay)/mlp
		}
		return p.L1Cost + (p.L3Cost+l3Queue)/mlp
	case cache.LevelMem:
		return p.L1Cost + (p.L3Cost+l3Queue+memDelay)/mlp
	}
	return 0
}

// Core tracks one hardware context's instruction and cycle clocks.
type Core struct {
	id     int
	params Params

	cycles    float64
	instrs    uint64
	memAccs   uint64
	suspended bool
}

// NewCore builds a core with the given id and timing parameters.
func NewCore(id int, p Params) (*Core, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Core{id: id, params: p}, nil
}

// MustNewCore is NewCore but panics on error.
func MustNewCore(id int, p Params) *Core {
	c, err := NewCore(id, p)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Params returns the core's timing parameters.
func (c *Core) Params() Params { return c.params }

// Cycles returns the core's cycle clock.
func (c *Core) Cycles() float64 { return c.cycles }

// Instructions returns the retired instruction count.
func (c *Core) Instructions() uint64 { return c.instrs }

// MemAccesses returns the demand memory access count.
func (c *Core) MemAccesses() uint64 { return c.memAccs }

// Suspended reports whether the core is halted.
func (c *Core) Suspended() bool { return c.suspended }

// Suspend halts the core; the machine scheduler skips it.
func (c *Core) Suspend() { c.suspended = true }

// Resume lets a suspended core run again from the given global cycle,
// so it does not "catch up" on the time it spent halted.
func (c *Core) Resume(now float64) {
	c.suspended = false
	if c.cycles < now {
		c.cycles = now
	}
}

// RetireInstrs advances the clock for n non-memory instructions.
func (c *Core) RetireInstrs(n uint64) {
	c.instrs += n
	c.cycles += float64(float64(n) * c.params.BaseCPI) // rounded: no FMA
}

// RetireAccess advances the clock for one memory access (counted as one
// instruction) that cost the given stall cycles.
func (c *Core) RetireAccess(cost float64) {
	c.instrs++
	c.memAccs++
	c.cycles += c.params.BaseCPI + cost
}

// AdvanceTo moves the cycle clock forward to at least cycle (used for
// warm-up idling); it never moves it backwards.
func (c *Core) AdvanceTo(cycle float64) {
	if c.cycles < cycle {
		c.cycles = cycle
	}
}

// CPI returns cycles per instruction since the last ResetClocks, or 0
// before any instruction retires.
func (c *Core) CPI() float64 {
	if c.instrs == 0 {
		return 0
	}
	return c.cycles / float64(c.instrs)
}

// ResetClocks zeroes the instruction and cycle counters (for interval
// measurement) without changing suspension state.
func (c *Core) ResetClocks() {
	c.cycles, c.instrs, c.memAccs = 0, 0, 0
}
