package conformance

import (
	"fmt"
	"math/bits"

	"cachepirate/internal/cache"
	"cachepirate/internal/prefetch"
)

// RefHierarchy is the executable specification of the multicore
// hierarchy walk: per-core private L1/L2 and a shared inclusive L3, all
// cache.Reference levels, advanced by the helper-composed sequence
// cache.Hierarchy ran before its walk was flattened — demand probe per
// level, fused L3 access-and-fill, victim back-invalidation, prefetcher
// training, L2 fill, L1 fill, one method call per step. It shares no
// optimisation with the production walk (no set bases carried between
// steps, no open-coded policy dispatch, no packed outcome), which is the
// point: cache.Hierarchy must match it outcome for outcome, counter for
// counter and line for line (HierarchyHarness).
type RefHierarchy struct {
	cfg cache.HierarchyConfig
	l1  []*cache.Reference
	l2  []*cache.Reference
	l3  *cache.Reference
	pf  []prefetch.Prefetcher

	lineSize      int64
	lineShift     uint
	fullBackInval bool
}

// NewRefHierarchy builds a reference hierarchy from cfg, with the same
// per-level overrides cache.NewHierarchy applies (private levels keep
// one owner's statistics, the L3 one per core).
func NewRefHierarchy(cfg cache.HierarchyConfig) (*RefHierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &RefHierarchy{
		cfg:       cfg,
		lineSize:  cfg.L3.LineSize,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.L3.LineSize))),
	}
	for i := 0; i < cfg.Cores; i++ {
		l1cfg, l2cfg := cfg.L1, cfg.L2
		l1cfg.Owners, l2cfg.Owners = 1, 1
		l1cfg.Name = fmt.Sprintf("L1.%d", i)
		l2cfg.Name = fmt.Sprintf("L2.%d", i)
		l1, err := cache.NewReference(l1cfg)
		if err != nil {
			return nil, err
		}
		l2, err := cache.NewReference(l2cfg)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, l1)
		h.l2 = append(h.l2, l2)
		if cfg.NewPrefetcher != nil {
			h.pf = append(h.pf, cfg.NewPrefetcher())
		} else {
			h.pf = append(h.pf, prefetch.None{})
		}
	}
	l3cfg := cfg.L3
	l3cfg.Owners = cfg.Cores
	l3cfg.Name = "L3"
	l3, err := cache.NewReference(l3cfg)
	if err != nil {
		return nil, err
	}
	h.l3 = l3
	return h, nil
}

// SetFullBackInvalidate mirrors cache.Hierarchy.SetFullBackInvalidate.
func (h *RefHierarchy) SetFullBackInvalidate(on bool) { h.fullBackInval = on }

// Access performs one demand access by core.
func (h *RefHierarchy) Access(core int, addr cache.Addr, write bool) cache.Outcome {
	var out cache.Outcome
	if h.l1[core].Access(addr, write, 0).Hit {
		out.ServedBy = cache.LevelL1
		return out
	}
	if h.l2[core].Access(addr, write, 0).Hit {
		out.ServedBy = cache.LevelL2
		h.fillL1(core, addr, write, &out)
		return out
	}

	// The access reaches the shared L3: one port use, and the per-core
	// prefetcher observes the demand line stream here.
	out.L3Accesses++
	r3 := h.l3.AccessFill(addr, write, cache.Owner(core))
	if r3.Hit {
		out.ServedBy = cache.LevelL3
		out.PrefetchHit = r3.WasPrefetch
	} else {
		out.ServedBy = cache.LevelMem
		out.MemReadBytes += h.lineSize
		h.backInvalidate(r3.Evicted, &out)
	}
	h.trainPrefetcher(core, addr, !r3.Hit, &out)

	h.fillL2(core, addr, &out)
	h.fillL1(core, addr, write, &out)
	return out
}

// AccessNonTemporal performs a non-temporal read: resident lines hit
// normally, a miss fills no level and trains no prefetcher.
func (h *RefHierarchy) AccessNonTemporal(core int, addr cache.Addr) cache.Outcome {
	var out cache.Outcome
	if h.l1[core].Access(addr, false, 0).Hit {
		out.ServedBy = cache.LevelL1
		return out
	}
	if h.l2[core].Access(addr, false, 0).Hit {
		out.ServedBy = cache.LevelL2
		return out
	}
	out.L3Accesses++
	if r := h.l3.Access(addr, false, cache.Owner(core)); r.Hit {
		out.ServedBy = cache.LevelL3
		out.PrefetchHit = r.WasPrefetch
		return out
	}
	out.ServedBy = cache.LevelMem
	out.MemReadBytes += h.lineSize
	return out
}

// InvalidateRemoteCopies removes the line holding addr from every
// private cache except core's; dirty remote copies write back into the
// L3, or to memory if the L3 no longer holds the line.
func (h *RefHierarchy) InvalidateRemoteCopies(core int, addr cache.Addr) (invalidated int, memWriteBytes int64) {
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		e1, ok1 := h.l1[c].Invalidate(addr)
		e2, ok2 := h.l2[c].Invalidate(addr)
		if !ok1 && !ok2 {
			continue
		}
		invalidated++
		if (e1.Dirty || e2.Dirty) && !h.l3.MarkDirty(addr) {
			memWriteBytes += h.lineSize
		}
	}
	return invalidated, memWriteBytes
}

// trainPrefetcher feeds the demand access into core's prefetcher and
// fills its proposals into the L3; a resident proposal disturbs nothing.
func (h *RefHierarchy) trainPrefetcher(core int, addr cache.Addr, miss bool, out *cache.Outcome) {
	for _, pl := range h.pf[core].Observe(uint64(addr)>>h.lineShift, miss) {
		r := h.l3.Fill(cache.Addr(pl<<h.lineShift), cache.Owner(core), true, false)
		if r.Hit {
			continue
		}
		out.L3Accesses++
		out.MemReadBytes += h.lineSize
		out.Prefetches++
		h.backInvalidate(r.Evicted, out)
	}
}

// backInvalidate removes an evicted L3 victim from the private caches
// (inclusive L3): the victim's owner's only, or every core's once
// address spaces are shared. A dirty copy anywhere reaches memory.
func (h *RefHierarchy) backInvalidate(ev cache.Evicted, out *cache.Outcome) {
	if !ev.Valid {
		return
	}
	dirty := ev.Dirty
	lo, hi := int(ev.Owner), int(ev.Owner)+1
	if h.fullBackInval {
		lo, hi = 0, h.cfg.Cores
	}
	for c := lo; c < hi; c++ {
		if e, ok := h.l1[c].Invalidate(ev.LineAddr); ok && e.Dirty {
			dirty = true
		}
		if e, ok := h.l2[c].Invalidate(ev.LineAddr); ok && e.Dirty {
			dirty = true
		}
	}
	if dirty {
		out.MemWriteBytes += h.lineSize
	}
}

// fillL2 installs the line into core's L2; a dirty victim writes back
// into the L3, or to memory if the L3 has dropped it.
func (h *RefHierarchy) fillL2(core int, addr cache.Addr, out *cache.Outcome) {
	if ev := h.l2[core].FillMissed(addr, 0, false, false).Evicted; ev.Valid && ev.Dirty {
		if !h.l3.MarkDirty(ev.LineAddr) {
			out.MemWriteBytes += h.lineSize
		}
	}
}

// fillL1 installs the line into core's L1; a dirty victim's writeback
// chases L2, then L3, then memory.
func (h *RefHierarchy) fillL1(core int, addr cache.Addr, write bool, out *cache.Outcome) {
	if ev := h.l1[core].FillMissed(addr, 0, false, write).Evicted; ev.Valid && ev.Dirty {
		if !h.l2[core].MarkDirty(ev.LineAddr) && !h.l3.MarkDirty(ev.LineAddr) {
			out.MemWriteBytes += h.lineSize
		}
	}
}
