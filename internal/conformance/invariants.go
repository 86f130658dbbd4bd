package conformance

import (
	"fmt"

	"cachepirate/internal/cache"
)

// CheckOptions tunes the invariant checkers for streams that legally
// weaken an invariant.
type CheckOptions struct {
	// AllowNonTemporal skips the "fetches >= demand misses" L3 check:
	// non-temporal accesses miss without filling, so streams containing
	// them can legitimately have more L3 misses than fills.
	AllowNonTemporal bool
	// NonInclusive skips the inclusivity check: several cores caching
	// one line while L3 evictions back-invalidate only the victim's
	// owner legitimately leaves private copies the L3 has dropped.
	NonInclusive bool
}

// CheckCache verifies the per-owner counter-conservation and residency
// invariants of a single cache level. It returns the first violation
// found, or nil.
func CheckCache(c *cache.Cache) error {
	cfg := c.Config()
	for ow := 0; ow < cfg.Owners; ow++ {
		owner := cache.Owner(ow)
		s := c.Stats(owner)
		name := fmt.Sprintf("%s owner %d", cfg.Name, ow)
		// The conservation and subset identities come from the shared
		// table in identity.go — the same one the counterpair lint
		// analyzer enforces statically over counter-writing code.
		for _, g := range ConservationGroups {
			var sum uint64
			for _, f := range g[1:] {
				sum += counterValue(s, f)
			}
			if total := counterValue(s, g[0]); total != sum {
				return fmt.Errorf("conformance: %s: %s %d != sum of %v (%d)",
					name, g[0], total, g[1:], sum)
			}
		}
		for _, p := range SubsetPairs {
			if sub, super := counterValue(s, p.Sub), counterValue(s, p.Super); sub > super {
				return fmt.Errorf("conformance: %s: %s %d > %s %d", name, p.Sub, sub, p.Super, super)
			}
		}
		// Every line an owner ever installed is now resident, was
		// evicted (counted), or was invalidated/flushed (uncounted) —
		// so evictions + resident can never exceed fills.
		if resident := uint64(c.ResidentLines(owner)); s.Evictions+resident > s.Fills {
			return fmt.Errorf("conformance: %s: evictions %d + resident %d > fills %d",
				name, s.Evictions, resident, s.Fills)
		}
	}
	return checkResidency(c)
}

// checkResidency verifies that no set holds more valid lines than its
// associativity and the cache no more than its capacity.
func checkResidency(c *cache.Cache) error {
	cfg := c.Config()
	perSet := make(map[int]int)
	total := 0
	c.ForEachLine(func(li cache.LineInfo) bool {
		perSet[li.Set]++
		total++
		return true
	})
	capacity := int(cfg.Sets()) * cfg.Ways
	if total > capacity {
		return fmt.Errorf("conformance: %s: %d resident lines exceed capacity %d", cfg.Name, total, capacity)
	}
	for set, n := range perSet {
		if n > cfg.Ways {
			return fmt.Errorf("conformance: %s: set %d holds %d lines, ways %d", cfg.Name, set, n, cfg.Ways)
		}
	}
	return nil
}

// CheckHierarchy verifies the cross-level invariants of a hierarchy
// whose state was produced purely by Access/AccessNonTemporal streams:
// per-level conservation (CheckCache at every cache), the demand-chain
// equalities (a core's L2 sees exactly its L1's misses, the L3 sees
// exactly each core's L2 misses), L3 fetches >= L3 demand misses, and
// inclusivity (every private-level line is resident in the shared L3,
// including after back-invalidations).
func CheckHierarchy(h *cache.Hierarchy, opts CheckOptions) error {
	cores := h.Config().Cores
	l3 := h.L3()
	for core := 0; core < cores; core++ {
		l1, l2 := h.L1(core), h.L2(core)
		if err := CheckCache(l1); err != nil {
			return fmt.Errorf("core %d: %w", core, err)
		}
		if err := CheckCache(l2); err != nil {
			return fmt.Errorf("core %d: %w", core, err)
		}
		s1, s2 := l1.Stats(0), l2.Stats(0)
		s3 := l3.Stats(cache.Owner(core))
		if s2.Accesses != s1.Misses {
			return fmt.Errorf("conformance: core %d: L2 accesses %d != L1 misses %d",
				core, s2.Accesses, s1.Misses)
		}
		if s3.Accesses != s2.Misses {
			return fmt.Errorf("conformance: core %d: L3 accesses %d != L2 misses %d",
				core, s3.Accesses, s2.Misses)
		}
		if !opts.AllowNonTemporal && s3.Fills < s3.Misses {
			return fmt.Errorf("conformance: core %d: L3 fetches %d < demand misses %d",
				core, s3.Fills, s3.Misses)
		}
		// Inclusivity: the shared L3 holds a superset of every private
		// cache. Back-invalidation on L3 eviction is what maintains
		// this; a missed back-invalidation shows up here.
		if opts.NonInclusive {
			continue
		}
		for _, priv := range []*cache.Cache{l1, l2} {
			var broken *cache.LineInfo
			priv.ForEachLine(func(li cache.LineInfo) bool {
				if !l3.Probe(li.LineAddr) {
					broken = &li
					return false
				}
				return true
			})
			if broken != nil {
				return fmt.Errorf("conformance: core %d: %s line %#x (set %d way %d) not in L3 — inclusivity broken",
					core, priv.Config().Name, uint64(broken.LineAddr), broken.Set, broken.Way)
			}
		}
	}
	return CheckCache(l3)
}

// CheckMonotonic verifies an event-clock sample sequence never moves
// backwards — the machine scheduler's Now() must be monotone under
// min-clock core selection.
func CheckMonotonic(samples []float64) error {
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			return fmt.Errorf("conformance: event clock moved backwards at sample %d: %g -> %g",
				i, samples[i-1], samples[i])
		}
	}
	return nil
}
