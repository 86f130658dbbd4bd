package cache

// OwnerStats aggregates the events one owner generated at one cache
// level. Fetch/miss terminology follows the paper's §I-B: a *miss* is a
// demand access that did not hit; a *fetch* is any line brought in from
// the level below, including prefetches. Without prefetching the two
// are equal.
type OwnerStats struct {
	Accesses      uint64 // demand accesses (reads + writes)
	Writes        uint64 // demand writes (subset of Accesses)
	Hits          uint64 // demand hits
	Misses        uint64 // demand misses
	Fills         uint64 // lines installed (demand fills + prefetch fills)
	PrefetchFills uint64 // prefetcher-initiated fills (subset of Fills)
	PrefetchHits  uint64 // demand hits on not-yet-touched prefetched lines
	Evictions     uint64 // this owner's lines evicted by anyone
	Writebacks    uint64 // dirty evictions of this owner's lines
}

// Fetches returns the number of lines fetched from the level below on
// behalf of this owner (demand fills + prefetch fills).
func (s OwnerStats) Fetches() uint64 { return s.Fills }

// Add returns s + other field-wise.
func (s OwnerStats) Add(other OwnerStats) OwnerStats {
	return OwnerStats{
		Accesses:      s.Accesses + other.Accesses,
		Writes:        s.Writes + other.Writes,
		Hits:          s.Hits + other.Hits,
		Misses:        s.Misses + other.Misses,
		Fills:         s.Fills + other.Fills,
		PrefetchFills: s.PrefetchFills + other.PrefetchFills,
		PrefetchHits:  s.PrefetchHits + other.PrefetchHits,
		Evictions:     s.Evictions + other.Evictions,
		Writebacks:    s.Writebacks + other.Writebacks,
	}
}

// Stats returns owner's cumulative counters at this cache.
func (c *Cache) Stats(owner Owner) OwnerStats {
	return c.stats[owner]
}

// TotalStats returns counters summed over all owners.
func (c *Cache) TotalStats() OwnerStats {
	var t OwnerStats
	for _, s := range c.stats {
		t = t.Add(s)
	}
	return t
}

// ResetStats zeroes all counters (contents are untouched).
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = OwnerStats{}
	}
}
