package cache

import (
	"fmt"
	"math/bits"

	"cachepirate/internal/prefetch"
)

// Level identifies which level of the hierarchy served a demand access.
type Level int

// Hierarchy levels, in increasing distance from the core.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMem
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// HierarchyConfig describes a multicore cache hierarchy: per-core
// private L1/L2 and one shared L3.
type HierarchyConfig struct {
	Cores int
	L1    Config // per-core template; Owners is overridden to 1
	L2    Config // per-core template; Owners is overridden to 1
	L3    Config // shared; Owners is overridden to Cores
	// NewPrefetcher builds the per-core L3 prefetcher. Nil disables
	// prefetching (fetches == misses).
	NewPrefetcher func() prefetch.Prefetcher
}

// Validate checks the configuration.
func (hc HierarchyConfig) Validate() error {
	if hc.Cores <= 0 || hc.Cores > MaxOwners {
		return fmt.Errorf("hierarchy: cores must be in 1..%d, got %d", MaxOwners, hc.Cores)
	}
	for _, c := range []Config{hc.L1, hc.L2, hc.L3} {
		cc := c
		cc.Owners = 1
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if hc.L1.LineSize != hc.L2.LineSize || hc.L2.LineSize != hc.L3.LineSize {
		return fmt.Errorf("hierarchy: mismatched line sizes (%d/%d/%d)",
			hc.L1.LineSize, hc.L2.LineSize, hc.L3.LineSize)
	}
	return nil
}

// Outcome describes one demand access's path through the hierarchy,
// with enough information for the timing model to charge latencies and
// bandwidth.
type Outcome struct {
	ServedBy Level
	// PrefetchHit is true when the access was served by an L3 line a
	// prefetcher brought in (latency largely hidden).
	PrefetchHit bool
	// MemReadBytes counts bytes read from DRAM for this access: the
	// demand line on an L3 miss plus any prefetched lines issued as a
	// side effect.
	MemReadBytes int64
	// MemWriteBytes counts DRAM writeback bytes triggered by this
	// access (dirty L3 evictions and dirty back-invalidated lines).
	MemWriteBytes int64
	// L3Accesses counts L3 port uses (demand lookup + prefetch fills),
	// for the shared L3 bandwidth model.
	L3Accesses int
	// Prefetches counts lines the prefetcher fetched from memory as a
	// side effect of this access.
	Prefetches int
}

// Hierarchy is a Cores-way multicore cache hierarchy with private
// L1/L2, a shared inclusive L3, write-allocate/write-back at every
// level, and per-core prefetchers observing the L3 demand stream.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	l3  *Cache
	pf  []prefetch.Prefetcher

	lineSize  int64
	lineShift uint // log2(lineSize)
	// hasPF is false when no prefetcher was configured: the training
	// step (an interface call per L3 access) is skipped entirely.
	hasPF bool
	// fullBackInval makes L3 evictions back-invalidate every core's
	// private copies instead of only the filler's. Required once
	// shared address spaces exist (several cores may cache one line);
	// off by default to keep the common single-owner path cheap.
	fullBackInval bool
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:       cfg,
		lineSize:  cfg.L3.LineSize,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.L3.LineSize))),
		hasPF:     cfg.NewPrefetcher != nil,
	}
	for i := 0; i < cfg.Cores; i++ {
		l1cfg := cfg.L1
		l1cfg.Owners = 1
		l1cfg.Name = fmt.Sprintf("L1.%d", i)
		l2cfg := cfg.L2
		l2cfg.Owners = 1
		l2cfg.Name = fmt.Sprintf("L2.%d", i)
		l1, err := New(l1cfg)
		if err != nil {
			return nil, err
		}
		l2, err := New(l2cfg)
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
	l3, err := New(l3cfg)
	if err != nil {
		return nil, err
	}
	h.l3 = l3
	return h, nil
}

// MustNewHierarchy is NewHierarchy but panics on error.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L3 exposes the shared last-level cache (for occupancy checks and
// counter reads).
func (h *Hierarchy) L3() *Cache { return h.l3 }

// L1 returns core's private L1.
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// L2 returns core's private L2.
func (h *Hierarchy) L2(core int) *Cache { return h.l2[core] }

// LineSize returns the hierarchy line size in bytes.
func (h *Hierarchy) LineSize() int64 { return h.lineSize }

// Access performs one demand access by core and returns its outcome:
// AccessPacked's word, expanded.
func (h *Hierarchy) Access(core int, addr Addr, write bool) Outcome {
	return h.AccessPacked(core, addr, write).Outcome(h.lineSize)
}

// AccessPacked performs one demand access by core and returns its
// outcome as one word (see PackedOutcome; every level of a hierarchy
// shares one line size, so line counts lose nothing). The address is
// decoded to a line tag once; per-level set indices are one mask (or
// modulo) each off that tag.
//
// The walk is one flattened body: the per-level demand probes, the L3
// access-and-fill, and the private-level fills run inline on the set
// bases the probes computed, with the replacement-policy dispatch
// written out at each site so the per-policy leaves inline into it (the
// general touch and victim dispatchers are over the inliner's budget;
// DESIGN.md §8, `make check-inline`). Only the two policies the Table-I
// machine is built from get an inline victim arm; LRU and Random go
// through victim(), a call on a path that evicts.
//
// It is the owner-aware twin of FusedHierarchy.AccessPacked and
// deliberately a separate body: this one keeps what a multicore machine
// observes and the replica walk drops — every OwnerStats counter of the
// private levels, the L3's counters per owner, the owner byte of every
// L3 line, the victim's owner on eviction, and the back-invalidation of
// every core once address spaces are shared. Each state transition is
// operation for operation the Cache method it replaces (demand,
// AccessFill, fillWay, Invalidate), except that a private-level hit
// does not test the prefetch flag: only the L3 is ever filled by a
// prefetcher. conformance.ReplayHierarchy checks the walk step for step
// against the helper-composed reference (outcome, every counter, every
// line), core.TestProfileGolden pins the co-run built on it, and
// TestFusedAccessOutcomeMatchesHierarchy holds the two bodies together.
//
//lint:hotpath
func (h *Hierarchy) AccessPacked(core int, addr Addr, write bool) PackedOutcome {
	l1 := h.l1[core]
	l2 := h.l2[core]
	tag := uint64(addr) >> h.lineShift

	// L1 demand probe (demand and hit, inline).
	st1 := &l1.stats[0]
	st1.Accesses++
	if write {
		st1.Writes++
	}
	si1 := l1.setFor(tag)
	base1 := int(si1) * l1.ways
	if w := l1.findWay(base1, tag); w >= 0 {
		st1.Hits++
		if write {
			l1.flags[base1+w] |= flagDirty
		}
		switch l1.cfg.Policy {
		case LRU:
			l1.clock++
			l1.stamp[base1+w] = l1.clock
		case PseudoLRU:
			l1.plruTouch(si1, w)
		case Nehalem:
			l1.nehalemTouch(si1, w)
		}
		return PackedL1Hit
	}
	st1.Misses++

	// L2 demand probe.
	var out PackedOutcome
	st2 := &l2.stats[0]
	st2.Accesses++
	if write {
		st2.Writes++
	}
	si2 := l2.setFor(tag)
	base2 := int(si2) * l2.ways
	if w := l2.findWay(base2, tag); w >= 0 {
		st2.Hits++
		if write {
			l2.flags[base2+w] |= flagDirty
		}
		switch l2.cfg.Policy {
		case LRU:
			l2.clock++
			l2.stamp[base2+w] = l2.clock
		case PseudoLRU:
			l2.plruTouch(si2, w)
		case Nehalem:
			l2.nehalemTouch(si2, w)
		}
		out = PackedL2Hit
	} else {
		st2.Misses++

		// The access reaches the shared L3 — one port use, which the
		// served level (L3 or memory) implies — and core's prefetcher
		// observes the demand line stream here. AccessFill inline: the
		// set is scanned once whether the access hits or misses.
		l3 := h.l3
		st3 := &l3.stats[core]
		st3.Accesses++
		if write {
			st3.Writes++
		}
		si3 := l3.setFor(tag)
		base3 := int(si3) * l3.ways
		w3 := l3.findWay(base3, tag)
		if w3 >= 0 {
			st3.Hits++
			idx := base3 + w3
			fl := l3.flags[idx]
			if fl&flagPrefetch != 0 {
				fl &^= flagPrefetch
				st3.PrefetchHits++
				out = packPrefetchHit
			}
			if write {
				fl |= flagDirty
			}
			l3.flags[idx] = fl
			switch l3.cfg.Policy {
			case LRU:
				l3.clock++
				l3.stamp[idx] = l3.clock
			case PseudoLRU:
				l3.plruTouch(si3, w3)
			case Nehalem:
				l3.nehalemTouch(si3, w3)
			}
			out |= PackedOutcome(LevelL3)
		} else {
			// Miss: fillWay inline (a demand fill installs a clean line).
			// The victim's counters go to the owner that filled it, and
			// its back-invalidation runs before the new line's install —
			// it touches private-level state only, so the two commute.
			st3.Misses++
			st3.Fills++
			out = PackedOutcome(LevelMem) // and with it the demand line's DRAM read
			var victim int
			if fm := l3.free[si3]; fm != 0 {
				victim = bits.TrailingZeros64(fm)
				l3.free[si3] = fm &^ (1 << uint(victim))
			} else {
				switch l3.cfg.Policy {
				case PseudoLRU:
					victim = l3.plruVictim(si3)
				case Nehalem:
					victim = l3.nehalemVictim(si3)
				default:
					victim = l3.victim(si3, base3)
				}
				idx := base3 + victim
				vo := l3.owner[idx]
				vs := &l3.stats[vo]
				vs.Evictions++
				vDirty := l3.flags[idx]&flagDirty != 0
				if vDirty {
					vs.Writebacks++
				}
				out += h.backInvalidate(l3.tags[idx], int(vo), vDirty)
			}
			idx := base3 + victim
			l3.tags[idx] = tag
			l3.flags[idx] = 0
			l3.owner[idx] = uint8(core)
			switch l3.cfg.Policy {
			case LRU:
				l3.clock++
				l3.stamp[idx] = l3.clock
			case PseudoLRU:
				l3.plruTouch(si3, victim)
			case Nehalem:
				l3.nehalemTouch(si3, victim)
			}
		}
		if h.hasPF {
			out += h.trainPrefetcher(core, tag, w3 < 0)
		}

		// L2 fill at the base its probe computed. The line is known
		// absent: the L2 missed above and nothing since adds L2 lines (L3
		// fills and back-invalidations only remove them). A dirty victim
		// writes back into the inclusive L3 or, if the L3 has dropped the
		// line, to DRAM; the chase touches only the L3's flags, so running
		// it before this level's install commutes.
		st2.Fills++
		var v2 int
		if fm := l2.free[si2]; fm != 0 {
			v2 = bits.TrailingZeros64(fm)
			l2.free[si2] = fm &^ (1 << uint(v2))
		} else {
			switch l2.cfg.Policy {
			case PseudoLRU:
				v2 = l2.plruVictim(si2)
			case Nehalem:
				v2 = l2.nehalemVictim(si2)
			default:
				v2 = l2.victim(si2, base2)
			}
			st2.Evictions++
			if l2.flags[base2+v2]&flagDirty != 0 {
				st2.Writebacks++
				vt := l2.tags[base2+v2]
				if _, b := l3.own(vt); !l3.markDirtyTag(b, vt) {
					out += packWriteLine
				}
			}
		}
		idx2 := base2 + v2
		l2.tags[idx2] = tag
		l2.flags[idx2] = 0
		switch l2.cfg.Policy {
		case LRU:
			l2.clock++
			l2.stamp[idx2] = l2.clock
		case PseudoLRU:
			l2.plruTouch(si2, v2)
		case Nehalem:
			l2.nehalemTouch(si2, v2)
		}
	}

	// L1 fill, after an L2 hit and after an L2 fill alike; a dirty
	// victim's writeback chases L2, then L3, then DRAM. Private-level
	// owner bytes are never written: they start zero, clearLine zeroes
	// them, and the single owner is 0.
	st1.Fills++
	var v1 int
	if fm := l1.free[si1]; fm != 0 {
		v1 = bits.TrailingZeros64(fm)
		l1.free[si1] = fm &^ (1 << uint(v1))
	} else {
		switch l1.cfg.Policy {
		case PseudoLRU:
			v1 = l1.plruVictim(si1)
		case Nehalem:
			v1 = l1.nehalemVictim(si1)
		default:
			v1 = l1.victim(si1, base1)
		}
		st1.Evictions++
		if l1.flags[base1+v1]&flagDirty != 0 {
			st1.Writebacks++
			vt := l1.tags[base1+v1]
			if _, b := l2.own(vt); !l2.markDirtyTag(b, vt) {
				l3 := h.l3
				if _, b := l3.own(vt); !l3.markDirtyTag(b, vt) {
					out += packWriteLine
				}
			}
		}
	}
	idx1 := base1 + v1
	l1.tags[idx1] = tag
	if write {
		l1.flags[idx1] = flagDirty
	} else {
		l1.flags[idx1] = 0
	}
	switch l1.cfg.Policy {
	case LRU:
		l1.clock++
		l1.stamp[idx1] = l1.clock
	case PseudoLRU:
		l1.plruTouch(si1, v1)
	case Nehalem:
		l1.nehalemTouch(si1, v1)
	}
	return out
}

// InvalidateRemoteCopies removes the line holding addr from every
// private cache except core's — the write-invalidate step of the
// coherence protocol for shared-memory contexts. Dirty remote copies
// write back into the (inclusive) L3, or to memory if the L3 has
// already dropped the line. It returns how many remote copies were
// invalidated and the memory writeback bytes incurred.
func (h *Hierarchy) InvalidateRemoteCopies(core int, addr Addr) (invalidated int, memWriteBytes int64) {
	tag := uint64(addr) >> h.lineShift
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		l1, l2 := h.l1[c], h.l2[c]
		si1, base1 := l1.own(tag)
		d1, found1 := l1.invalidatePrivate(si1, base1, tag)
		si2, base2 := l2.own(tag)
		d2, found2 := l2.invalidatePrivate(si2, base2, tag)
		if found1 || found2 {
			invalidated++
			if d1 || d2 {
				if _, base3 := h.l3.own(tag); !h.l3.markDirtyTag(base3, tag) {
					memWriteBytes += h.lineSize
				}
			}
		}
	}
	return invalidated, memWriteBytes
}

// AccessNonTemporal performs a non-temporal (streaming) read: it hits
// resident lines normally, but on a miss the data moves straight to
// the core — no level is filled, no prefetcher trains. The access
// still costs DRAM bandwidth, which is exactly the profile the
// Bandwidth Bandit needs.
func (h *Hierarchy) AccessNonTemporal(core int, addr Addr) Outcome {
	return h.AccessNonTemporalPacked(core, addr).Outcome(h.lineSize)
}

// AccessNonTemporalPacked is AccessNonTemporal with the outcome as one
// word, the form the machine's step loop consumes.
//
//lint:hotpath
func (h *Hierarchy) AccessNonTemporalPacked(core int, addr Addr) PackedOutcome {
	tag := uint64(addr) >> h.lineShift
	l1, l2, l3 := h.l1[core], h.l2[core], h.l3
	si1, base1 := l1.own(tag)
	if hit, _ := l1.demand(si1, base1, tag, false, 0); hit {
		return PackedL1Hit
	}
	si2, base2 := l2.own(tag)
	if hit, _ := l2.demand(si2, base2, tag, false, 0); hit {
		return PackedL2Hit
	}
	si3, base3 := l3.own(tag)
	if hit, wasPref := l3.demand(si3, base3, tag, false, Owner(core)); hit {
		if wasPref {
			return PackedOutcome(LevelL3) | packPrefetchHit
		}
		return PackedOutcome(LevelL3)
	}
	return PackedOutcome(LevelMem)
}

// trainPrefetcher feeds the demand line into core's prefetcher and
// fills its proposals into the L3 on core's behalf. fillTag's residency
// check doubles as the probe: on an already-resident line a
// prefetch-marked fill is a no-op (no counters, no replacement touch),
// so each proposal costs one set scan. The side effects come back as an
// outcome delta — prefetch fills and the writebacks their evictions
// caused — so the caller's outcome stays in a register.
func (h *Hierarchy) trainPrefetcher(core int, tag uint64, miss bool) PackedOutcome {
	var d PackedOutcome
	l3 := h.l3
	for _, pl := range h.pf[core].Observe(tag, miss) {
		si, base := l3.own(pl)
		r := l3.fillTag(si, base, pl, Owner(core), true, false)
		if r.Hit {
			continue // already resident; nothing was disturbed
		}
		d += packPrefetch
		if ev := r.Evicted; ev.Valid {
			d += h.backInvalidate(uint64(ev.LineAddr)>>h.lineShift, int(ev.Owner), ev.Dirty)
		}
	}
	return d
}

// backInvalidate removes an evicted L3 line — tag, filled by owner,
// dirty or not in the L3 — from the private caches and returns the DRAM
// writeback the eviction causes (zero or one write line). Inclusive L3:
// evicting a line removes it from the private caches too, and a dirty
// copy anywhere must reach memory. Without shared address spaces only
// the owner that filled the line can hold a copy; with them every core
// is probed.
func (h *Hierarchy) backInvalidate(tag uint64, owner int, dirty bool) PackedOutcome {
	lo, hi := owner, owner+1
	if h.fullBackInval {
		lo, hi = 0, len(h.l1)
	}
	for c := lo; c < hi; c++ {
		l1, l2 := h.l1[c], h.l2[c]
		si1, base1 := l1.own(tag)
		if d, _ := l1.invalidatePrivate(si1, base1, tag); d {
			dirty = true
		}
		si2, base2 := l2.own(tag)
		if d, _ := l2.invalidatePrivate(si2, base2, tag); d {
			dirty = true
		}
	}
	if dirty {
		return packWriteLine
	}
	return 0
}

// SetFullBackInvalidate switches L3 evictions to probe every core's
// private caches (needed once any shared address space is attached).
func (h *Hierarchy) SetFullBackInvalidate(on bool) { h.fullBackInval = on }

// FlushCore empties core's private caches and invalidates its L3 lines,
// modelling a context losing all cached state. Statistics are kept.
func (h *Hierarchy) FlushCore(core int) {
	h.l1[core].Flush()
	h.l2[core].Flush()
	// Remove the core's lines from the shared L3 one by one.
	ow := uint8(core)
	l3 := h.l3
	for si := uint64(0); si < l3.nsets; si++ {
		base := int(si) * l3.ways
		for w := 0; w < l3.ways; w++ {
			if idx := base + w; l3.tags[idx] != invalidTag && l3.owner[idx] == ow {
				l3.clearLine(si, base, w)
			}
		}
	}
	h.pf[core].Reset()
}

// ResetStats zeroes counters at every level.
func (h *Hierarchy) ResetStats() {
	for i := range h.l1 {
		h.l1[i].ResetStats()
		h.l2[i].ResetStats()
	}
	h.l3.ResetStats()
}
