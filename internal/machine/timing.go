package machine

import (
	"fmt"

	"cachepirate/internal/cache"
	"cachepirate/internal/counters"
)

// The timing model: how one access, given the level that served it,
// turns into core cycles. The model is deliberately first-order, in
// the spirit of the interval models the paper cites ([14], [18]): CPI
// is a base (pipeline) CPI plus memory stall cycles, with stalls beyond
// the L1 divided by the workload's memory-level parallelism (MLP). That
// single knob is what separates bandwidth-compensating streaming
// applications (high MLP, flat CPI curves — 470.lbm in Fig. 8) from
// latency-bound pointer chasers (MLP ≈ 1, steep CPI curves — 429.mcf).
// Accesses past L2 also queue at the shared bandwidth servers, the L3
// port and DRAM (Server), and that queueing is the contention penalty
// co-runners inflict on each other.

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
		return fmt.Errorf("machine: BaseCPI must be positive, got %g", p.BaseCPI)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"L1Cost", p.L1Cost}, {"L2Cost", p.L2Cost}, {"L3Cost", p.L3Cost},
		{"PrefetchHitCost", p.PrefetchHitCost},
	} {
		if v.val < 0 {
			return fmt.Errorf("machine: %s must be non-negative, got %g", v.name, v.val)
		}
	}
	if p.FreqHz <= 0 {
		return fmt.Errorf("machine: FreqHz must be positive, got %g", p.FreqHz)
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
// served by the given level; prefetchHit marks an L3 hit on a line a
// prefetcher brought in. memDelay is the DRAM delay relevant to this
// access: the full latency (base + queueing + service) for an L3 miss,
// or just the controller's queueing backlog for a prefetch hit — when
// DRAM saturates, prefetched data stops arriving ahead of demand, which
// is what throttles streaming workloads to the off-chip bandwidth (the
// paper's §I-A "87% of required bandwidth ⇒ 87% of performance"
// effect). l3Queue is the queueing delay at the shared L3 port. mlp is
// the workload's memory-level parallelism (values < 1 are treated as 1).
func AccessCost(p Params, served cache.Level, prefetchHit bool, memDelay, l3Queue, mlp float64) float64 {
	if mlp < 1 {
		mlp = 1
	}
	switch served {
	case cache.LevelL1:
		return p.L1Cost
	case cache.LevelL2:
		return p.L1Cost + p.L2Cost/mlp
	case cache.LevelL3:
		if prefetchHit {
			return p.L1Cost + (p.PrefetchHitCost+l3Queue+memDelay)/mlp
		}
		return p.L1Cost + (p.L3Cost+l3Queue)/mlp
	case cache.LevelMem:
		return p.L1Cost + (p.L3Cost+l3Queue+memDelay)/mlp
	}
	return 0
}

// Costs are one context's timing constants: the core parameters, its
// memory-level parallelism, and what both replay engines add to a
// core's cycle clock without a look at the bandwidth servers.
//
// L1Hit, L2Hit and L3Hit are the stall cycles of the three accesses
// that meet no queue — an L1 hit, an L2 hit, and an L3 hit (not of a
// prefetched line) that finds the port idle. Each depends on the core
// parameters and the MLP alone, so NewCosts evaluates AccessCost once
// with zero delays: the very expression a step would evaluate per
// access, on the same operands — bit-equal — without the divide by the
// MLP. Chunk is the cycles of one full StepChunk of instructions, and
// L1Retire and L2Retire are what retiring an L1 or L2 hit adds to the
// clock: BaseCPI plus its stall, as every other access retires.
type Costs struct {
	CPU                 Params
	MLP                 float64
	L1Hit, L2Hit, L3Hit float64
	Chunk               float64
	L1Retire, L2Retire  float64
}

// NewCosts returns the costs of a context with the given MLP; an MLP
// below 1 counts as 1.
func NewCosts(p Params, mlp float64) Costs {
	if mlp < 1 {
		mlp = 1
	}
	c := Costs{
		CPU: p, MLP: mlp,
		L1Hit: AccessCost(p, cache.LevelL1, false, 0, 0, mlp),
		L2Hit: AccessCost(p, cache.LevelL2, false, 0, 0, mlp),
		L3Hit: AccessCost(p, cache.LevelL3, false, 0, 0, mlp),
	}
	c.Chunk = c.Instrs(StepChunk)
	c.L1Retire = p.BaseCPI + c.L1Hit
	c.L2Retire = p.BaseCPI + c.L2Hit
	return c
}

// Instrs returns the cycles of n non-memory instructions.
func (c *Costs) Instrs(n uint32) float64 {
	return float64(float64(n) * c.CPU.BaseCPI) // rounded: no FMA
}

// ServerConfig describes a shared bandwidth resource: the DRAM
// controller (off-chip bandwidth, the paper's 10.4 GB/s) or the shared
// L3 port (the 68 GB/s the multithreaded Pirate can saturate, §II-C2 /
// §III-C).
type ServerConfig struct {
	Name          string
	BytesPerCycle float64 // service capacity
	BaseLatency   float64 // unloaded latency in cycles, added after service
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("machine: server %s: BytesPerCycle must be positive, got %g", c.Name, c.BytesPerCycle)
	}
	if c.BaseLatency < 0 {
		return fmt.Errorf("machine: server %s: negative BaseLatency %g", c.Name, c.BaseLatency)
	}
	return nil
}

// Server returns an idle server for c, whose requests are mostly one
// line of lineBytes. c must be valid.
func (c ServerConfig) Server(lineBytes int64) Server {
	return Server{
		line:      float64(lineBytes) / c.BytesPerCycle,
		lineBytes: lineBytes,
		bpc:       c.BytesPerCycle,
		latency:   c.BaseLatency,
	}
}

// Server is a work-conserving bandwidth server, held by value: its
// next-free cursor and the constants of its configuration. A request
// arriving at cycle t occupies the server for size/capacity cycles
// starting at max(t, nextFree), plus a fixed base latency; the queueing
// delay — the difference between the unloaded and loaded completion
// time — is the emergent contention penalty that makes co-runners slow
// each other down, which is exactly the effect Cache Pirating measures.
type Server struct {
	nextFree float64

	// Service time of one line, lineBytes/BytesPerCycle. Nearly every
	// request is one line, so the division runs once here instead of
	// per request; the stored quotient is the same IEEE division of the
	// same operands, so schedules stay bit-identical.
	line      float64
	lineBytes int64
	bpc       float64
	latency   float64
}

// Request schedules a transfer of size bytes arriving at cycle now and
// returns the cycle at which the data is available. Completion =
// max(now, nextFree) + size/capacity + baseLatency.
func (s *Server) Request(now float64, size int64) (done float64) {
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	service := s.line
	if size != s.lineBytes {
		service = float64(size) / s.bpc
	}
	s.nextFree = start + service
	return s.nextFree + s.latency
}

// Backlog returns how long a request arriving at cycle now waits
// before its service starts.
func (s *Server) Backlog(now float64) float64 {
	if s.nextFree > now {
		return s.nextFree - now
	}
	return 0
}

// Traffic is a context's cumulative DRAM bytes.
type Traffic struct {
	Read, Write uint64
}

// Shared is the state of the bandwidth resources that accesses leaving
// the private levels share: the L3 port and DRAM. A machine holds one
// for all its cores; the fused sweep engine holds one per replica.
type Shared struct {
	Port, DRAM Server
	line       int64
}

// NewShared returns idle servers for cfg's L3 port and DRAM.
func NewShared(cfg Config) Shared {
	line := cfg.L3.LineSize
	return Shared{Port: cfg.L3Port.Server(line), DRAM: cfg.DRAM.Server(line), line: line}
}

// Charge books an access whose outcome word is neither PackedL1Hit nor
// PackedL2Hit on the shared servers — the L3 port, then the DRAM read,
// then the DRAM writeback, each only if the word says the access
// reached it — adds its DRAM bytes to tr, and returns the stall cycles
// of the access, arriving at cycle now, for a context with costs c.
// This is the one timing recurrence of an access past L2: the machine's
// step and the fused sweep engine's record loops both call it.
//
//lint:hotpath
func (s *Shared) Charge(out cache.PackedOutcome, now float64, c *Costs, tr *Traffic) float64 {
	var l3Queue, memDelay float64
	if uses := out.L3Uses(); uses > 0 {
		// Queueing at the shared L3 port; the unloaded port service
		// time is already folded into the CPU's L3Cost.
		l3Queue = s.Port.Backlog(now)
		s.Port.Request(now, uses*s.line)
	}
	if lines := out.ReadLines(); lines > 0 {
		// Queueing backlog before this request: the delay a prefetch
		// hit sees when DRAM is saturated (the data is not ahead of
		// demand any more).
		memDelay = s.DRAM.Backlog(now)
		done := s.DRAM.Request(now, lines*s.line)
		if out.ServedBy() == cache.LevelMem {
			memDelay = done - now
		}
		tr.Read += uint64(lines * s.line)
	}
	if lines := out.WriteLines(); lines > 0 {
		s.WriteBack(now, lines*s.line, tr)
	}
	if out == cache.PackedOutcome(cache.LevelL3) && l3Queue == 0 {
		return c.L3Hit
	}
	return AccessCost(c.CPU, out.ServedBy(), out.PrefetchHit(), memDelay, l3Queue, c.MLP)
}

// WriteBack books size bytes written back to DRAM at cycle now and adds
// them to tr. A writeback takes DRAM bandwidth but stalls no core.
func (s *Shared) WriteBack(now float64, size int64, tr *Traffic) {
	s.DRAM.Request(now, size)
	tr.Write += uint64(size)
}

// Sample is the one counter read of a context's clock state: its
// retired instructions and demand accesses, its cycle clock, its L3
// owner statistics and its DRAM traffic, as the performance counters
// report them. Machine.ReadCounters and the fused sweep engine's
// per-replica read both go through it.
func Sample(instrs, memAccs uint64, cycles float64, l3 cache.OwnerStats, tr Traffic) counters.Sample {
	return counters.Sample{
		Instructions:  instrs,
		Cycles:        uint64(cycles),
		MemAccesses:   memAccs,
		L3Accesses:    l3.Accesses,
		L3Misses:      l3.Misses,
		L3Fetches:     l3.Fetches(),
		L3Prefetches:  l3.PrefetchFills,
		MemReadBytes:  tr.Read,
		MemWriteBytes: tr.Write,
	}
}
