package cache

// Reference is the pre-SoA array-of-structs cache model, kept as an
// executable specification of the replacement policies. PR 2 retained
// it inside the equivalence test; the conformance subsystem
// (internal/conformance) promotes it to a first-class oracle: every
// randomized or fuzz-generated operation stream is replayed through
// both models and any divergence — a different victim, a dropped
// writeback, replacement-state drift — is reported on the exact
// operation where it first appears.
//
// The implementation deliberately stays naive: it scans line structs
// instead of a dense tag array, re-finds the set on every Fill, and
// keeps no MRU hint or free mask. Slowness is a feature here — the
// value of the oracle is that it shares no optimisation (and therefore
// no optimisation bug) with the SoA kernel.
type Reference struct {
	cfg      Config
	sets     []refSet
	nsets    uint64
	shift    uint
	clock    uint64
	rngState uint64
	stats    []OwnerStats
}

// refLine is one cache line's bookkeeping in the reference layout.
type refLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool
	owner    Owner
}

// refSet is one associative set: lines plus policy metadata.
type refSet struct {
	lines []refLine
	// stamp holds per-way LRU timestamps (LRU policy) or accessed bits
	// (Nehalem policy, 0/1).
	stamp []uint64
	tree  uint64 // pseudo-LRU tree bits
}

// NewReference builds a reference cache from cfg.
func NewReference(cfg Config) (*Reference, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	shift := uint(0)
	for ls := uint64(cfg.LineSize); ls > 1; ls >>= 1 {
		shift++
	}
	c := &Reference{
		cfg:      cfg,
		sets:     make([]refSet, nsets),
		nsets:    uint64(nsets),
		shift:    shift,
		rngState: 0x853C49E6748FEA9B,
		stats:    make([]OwnerStats, cfg.Owners),
	}
	for i := range c.sets {
		c.sets[i].lines = make([]refLine, cfg.Ways)
		c.sets[i].stamp = make([]uint64, cfg.Ways)
	}
	return c, nil
}

// MustNewReference is NewReference but panics on configuration errors.
func MustNewReference(cfg Config) *Reference {
	c, err := NewReference(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the reference cache's configuration.
func (c *Reference) Config() Config { return c.cfg }

// Stats returns owner's cumulative counters.
func (c *Reference) Stats(owner Owner) OwnerStats { return c.stats[owner] }

func (c *Reference) index(a Addr) (setIdx uint64, tag uint64) {
	lineAddr := uint64(a) >> c.shift
	return lineAddr % c.nsets, lineAddr
}

func (c *Reference) lineAddr(tag uint64) Addr { return Addr(tag << c.shift) }

// Access performs a demand access; on a miss the line is NOT filled
// (same contract as Cache.Access).
func (c *Reference) Access(a Addr, write bool, owner Owner) Result {
	si, tag := c.index(a)
	s := &c.sets[si]
	st := &c.stats[owner]
	st.Accesses++
	if write {
		st.Writes++
	}
	for w := range s.lines {
		ln := &s.lines[w]
		if ln.valid && ln.tag == tag {
			st.Hits++
			wasPref := ln.prefetch
			if wasPref {
				ln.prefetch = false
				st.PrefetchHits++
			}
			if write {
				ln.dirty = true
			}
			c.touch(s, w)
			return Result{Hit: true, WasPrefetch: wasPref}
		}
	}
	st.Misses++
	return Result{}
}

// AccessFill is the fused demand path, defined — as DESIGN.md §8
// argues it must be — as Access immediately followed by Fill on a
// miss, with Result.Hit reporting the demand outcome.
func (c *Reference) AccessFill(a Addr, write bool, owner Owner) Result {
	r := c.Access(a, write, owner)
	if r.Hit {
		return r
	}
	r = c.Fill(a, owner, false, false)
	r.Hit = false
	return r
}

// Probe reports residency without disturbing state.
func (c *Reference) Probe(a Addr) bool {
	si, tag := c.index(a)
	s := &c.sets[si]
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts the line holding a (same contract as Cache.Fill).
func (c *Reference) Fill(a Addr, owner Owner, prefetch, dirty bool) Result {
	si, tag := c.index(a)
	s := &c.sets[si]
	st := &c.stats[owner]

	for w := range s.lines {
		ln := &s.lines[w]
		if ln.valid && ln.tag == tag {
			if dirty {
				ln.dirty = true
			}
			if !prefetch {
				ln.prefetch = false
				c.touch(s, w)
			}
			return Result{Hit: true}
		}
	}

	st.Fills++
	if prefetch {
		st.PrefetchFills++
	}

	victim := -1
	for w := range s.lines {
		if !s.lines[w].valid {
			victim = w
			break
		}
	}
	var res Result
	if victim < 0 {
		victim = c.victim(s)
		v := &s.lines[victim]
		res.Evicted = Evicted{
			Valid:    true,
			LineAddr: c.lineAddr(v.tag),
			Dirty:    v.dirty,
			Owner:    v.owner,
			Prefetch: v.prefetch,
		}
		c.stats[v.owner].Evictions++
		if v.dirty {
			c.stats[v.owner].Writebacks++
		}
	}
	s.lines[victim] = refLine{tag: tag, valid: true, dirty: dirty, prefetch: prefetch, owner: owner}
	c.touch(s, victim)
	return res
}

// FillMissed matches Cache.FillMissed: under its contract (the line is
// absent) the residency scan finds nothing, so plain Fill is the
// reference semantics.
func (c *Reference) FillMissed(a Addr, owner Owner, prefetch, dirty bool) Result {
	return c.Fill(a, owner, prefetch, dirty)
}

// MarkDirty sets the dirty bit of a resident line (no replacement
// touch), reporting whether the line was found.
func (c *Reference) MarkDirty(a Addr) bool {
	si, tag := c.index(a)
	s := &c.sets[si]
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].tag == tag {
			s.lines[w].dirty = true
			return true
		}
	}
	return false
}

// Invalidate removes the line holding a if resident.
func (c *Reference) Invalidate(a Addr) (Evicted, bool) {
	si, tag := c.index(a)
	s := &c.sets[si]
	for w := range s.lines {
		ln := &s.lines[w]
		if ln.valid && ln.tag == tag {
			ev := Evicted{Valid: true, LineAddr: c.lineAddr(ln.tag), Dirty: ln.dirty, Owner: ln.owner, Prefetch: ln.prefetch}
			*ln = refLine{}
			s.stamp[w] = 0
			return ev, true
		}
	}
	return Evicted{}, false
}

// ForEachLine calls fn for every valid line in set/way order, stopping
// early if fn returns false (same contract as Cache.ForEachLine). Both
// layouts fill the lowest-numbered empty way first and pick the same
// victims, so a line sits in the same way of the same set in each.
func (c *Reference) ForEachLine(fn func(LineInfo) bool) {
	for si := range c.sets {
		for w, ln := range c.sets[si].lines {
			if !ln.valid {
				continue
			}
			if !fn(LineInfo{Set: si, Way: w, LineAddr: c.lineAddr(ln.tag),
				Owner: ln.owner, Dirty: ln.dirty, Prefetch: ln.prefetch}) {
				return
			}
		}
	}
}

// Flush invalidates every line, resetting contents but not statistics.
// As in the SoA model's Flush, all replacement metadata clears; the
// per-way invalidation path (Invalidate) instead leaves the pseudo-LRU
// tree alone, matching clearLine.
func (c *Reference) Flush() {
	for i := range c.sets {
		s := &c.sets[i]
		for w := range s.lines {
			s.lines[w] = refLine{}
			s.stamp[w] = 0
		}
		s.tree = 0
	}
}

func (c *Reference) touch(s *refSet, w int) {
	switch c.cfg.Policy {
	case LRU:
		c.clock++
		s.stamp[w] = c.clock
	case PseudoLRU:
		c.plruTouch(s, w)
	case Nehalem:
		c.nehalemTouch(s, w)
	case Random:
	}
}

func (c *Reference) victim(s *refSet) int {
	switch c.cfg.Policy {
	case LRU:
		best, bestStamp := 0, s.stamp[0]
		for w := 1; w < len(s.lines); w++ {
			if s.stamp[w] < bestStamp {
				best, bestStamp = w, s.stamp[w]
			}
		}
		return best
	case PseudoLRU:
		return c.plruVictim(s)
	case Nehalem:
		return c.nehalemVictim(s)
	case Random:
		x := c.rngState
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		c.rngState = x
		return int((x * 0x2545F4914F6CDD1D) % uint64(len(s.lines)))
	}
	return 0
}

func (c *Reference) nehalemTouch(s *refSet, w int) {
	s.stamp[w] = 1
	for i := range s.stamp {
		if s.lines[i].valid || i == w {
			if s.stamp[i] == 0 {
				return
			}
		}
	}
	for i := range s.stamp {
		if i != w {
			s.stamp[i] = 0
		}
	}
}

func (c *Reference) nehalemVictim(s *refSet) int {
	for w := range s.stamp {
		if s.stamp[w] == 0 {
			return w
		}
	}
	return 0
}

func (c *Reference) plruTouch(s *refSet, w int) {
	n := len(s.lines)
	node := 1
	lo, hi := 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			s.tree |= 1 << uint(node)
			node, hi = 2*node, mid
		} else {
			s.tree &^= 1 << uint(node)
			node, lo = 2*node+1, mid
		}
	}
}

func (c *Reference) plruVictim(s *refSet) int {
	n := len(s.lines)
	node := 1
	lo, hi := 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.tree&(1<<uint(node)) == 0 {
			node, hi = 2*node, mid
		} else {
			node, lo = 2*node+1, mid
		}
	}
	return lo
}
