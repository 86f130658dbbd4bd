package machine

import (
	"cachepirate/internal/cache"
	"cachepirate/internal/cpu"
	"cachepirate/internal/mem"
)

// Costs are one context's timing constants: the core parameters, its
// memory-level parallelism, and the stall cycles of the three accesses
// that meet no queue — an L1 hit, an L2 hit, and an L3 hit (not of a
// prefetched line) that finds the port idle. Each of the three depends
// on the core parameters and the MLP alone, so NewCosts evaluates
// cpu.AccessCost once with zero delays: the very expression a step
// would evaluate per access, on the same operands — bit-equal — without
// the divide by the MLP.
type Costs struct {
	CPU                 cpu.Params
	MLP                 float64
	L1Hit, L2Hit, L3Hit float64
}

// NewCosts returns the costs of a context with the given MLP; an MLP
// below 1 counts as 1.
func NewCosts(p cpu.Params, mlp float64) Costs {
	if mlp < 1 {
		mlp = 1
	}
	served := func(l cache.Level) float64 {
		return cpu.AccessCost(p, cache.Outcome{ServedBy: l}, 0, 0, mlp)
	}
	return Costs{CPU: p, MLP: mlp, L1Hit: served(cache.LevelL1), L2Hit: served(cache.LevelL2), L3Hit: served(cache.LevelL3)}
}

// Traffic is a context's cumulative DRAM bytes.
type Traffic struct {
	Read, Write uint64
}

// Shared is the state of the bandwidth resources that accesses leaving
// the private levels share: the L3 port and DRAM. A machine holds one
// for all its cores; the fused sweep engine holds one per replica.
type Shared struct {
	Port, DRAM mem.Server
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
	// AccessCost reads the served level and the prefetch-hit bit only.
	served := cache.Outcome{ServedBy: out.ServedBy(), PrefetchHit: out.PrefetchHit()}
	return cpu.AccessCost(c.CPU, served, memDelay, l3Queue, c.MLP)
}

// WriteBack books size bytes written back to DRAM at cycle now and adds
// them to tr. A writeback takes DRAM bandwidth but stalls no core.
func (s *Shared) WriteBack(now float64, size int64, tr *Traffic) {
	s.DRAM.Request(now, size)
	tr.Write += uint64(size)
}
