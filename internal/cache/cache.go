// Package cache implements set-associative cache models with pluggable
// replacement policies (true LRU, tree pseudo-LRU, the Nehalem
// accessed-bit policy described in §II-B2 of the Cache Pirating paper,
// and deterministic random), plus a three-level Nehalem-style hierarchy
// with an inclusive shared L3.
//
// The package models cache *state* only; timing (latencies, bandwidth
// queueing) belongs to internal/machine's timing model. All state changes
// are deterministic, so simulations are bit-reproducible.
//
// Line state is stored structure-of-arrays: one dense tags array (with
// an impossible sentinel tag marking empty ways), packed per-line flag
// bytes, and dense replacement metadata, so the tag-match loop — the
// innermost loop of every simulation — is a tight scan over one
// cache-friendly array. The layout is an implementation
// detail: every operation is bit-identical to the reference
// array-of-structs model (see equivalence_test.go).
package cache

import (
	"fmt"
	"math/bits"
)

// Owner identifies which hardware context (core) performed an access.
// Per-owner statistics let the measurement harness read Target and
// Pirate event counts separately, mirroring per-core performance
// counters (OFFCORE_RSP_0 on the paper's machine).
type Owner int

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// PolicyKind selects a replacement policy for a Cache.
type PolicyKind int

// Replacement policies supported by the model.
const (
	// LRU is true least-recently-used replacement.
	LRU PolicyKind = iota
	// PseudoLRU is tree-based pseudo-LRU (requires power-of-two ways).
	PseudoLRU
	// Nehalem is the accessed-bit approximation of LRU used by the
	// Nehalem L3 (paper §II-B2): each line has an accessed bit; an
	// access sets it, and when the last unset bit would be set all
	// other bits clear; the victim is the first way with an unset bit.
	Nehalem
	// Random picks victims with a deterministic xorshift generator.
	Random
)

// String returns the policy name.
func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "lru"
	case PseudoLRU:
		return "plru"
	case Nehalem:
		return "nehalem"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is the inverse of PolicyKind.String.
func ParsePolicy(name string) (PolicyKind, error) {
	for p := LRU; p <= Random; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want nehalem, lru, plru or random)", name)
}

// PolicySet is a set of replacement policies, bit p for PolicyKind p.
type PolicySet uint8

// AllPolicies holds every policy.
const AllPolicies PolicySet = 1<<(Random+1) - 1

// Has reports whether p is in the set.
func (s PolicySet) Has(p PolicyKind) bool { return s&(1<<p) != 0 }

// Len is how many policies the set holds.
func (s PolicySet) Len() int { return bits.OnesCount8(uint8(s)) }

// PolicyClass returns the policies that choose the same victim as p in
// every full ways-way set, so that a cache of that geometry evolves
// alike under all of them, bit for bit.
//
// Every policy fills the lowest free way first and touches the way it
// fills or hits, and the policy is asked for a victim only when the set
// is full. With one way that victim is the only way, under every
// policy. With two ways, a set became full by a fill that touched its
// way, and every touch since was of one way or the other, so the victim
// LRU, tree pseudo-LRU and Nehalem pick is the way not touched last:
// LRU's older stamp; the one-node tree, which points away from the
// touched way; and the accessed bits, which after a touch of a full
// 2-way set hold the touched way's bit alone (the clear-all-but-touched
// rule). Random draws from its generator and is in a class of its own,
// as is every policy at three ways or more.
func PolicyClass(p PolicyKind, ways int) PolicySet {
	switch {
	case ways == 1:
		return AllPolicies
	case ways == 2 && p != Random:
		return 1<<LRU | 1<<PseudoLRU | 1<<Nehalem
	}
	return 1 << p
}

// Config describes one cache level.
type Config struct {
	Name     string     // for diagnostics, e.g. "L3"
	Size     int64      // total capacity in bytes
	Ways     int        // associativity
	LineSize int64      // line size in bytes (power of two)
	Policy   PolicyKind // replacement policy
	Owners   int        // number of distinct owners to keep stats for (1..MaxOwners)
}

// MaxOwners is the most owners a cache keeps apart: each line records
// the owner that filled it in one byte.
const MaxOwners = 256

// Validate checks that the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Size <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry (size=%d ways=%d line=%d)",
			c.Name, c.Size, c.Ways, c.LineSize)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(c.LineSize*int64(c.Ways)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*line (%d*%d)",
			c.Name, c.Size, c.Ways, c.LineSize)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache %s: more than 64 ways (%d) not supported (per-set metadata is one 64-bit word)", c.Name, c.Ways)
	}
	if c.Policy == PseudoLRU && c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cache %s: pseudo-LRU needs power-of-two ways, got %d", c.Name, c.Ways)
	}
	if c.Owners <= 0 || c.Owners > MaxOwners {
		return fmt.Errorf("cache %s: owners must be in 1..%d, got %d", c.Name, MaxOwners, c.Owners)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int64 { return c.Size / (c.LineSize * int64(c.Ways)) }

// invalidTag marks an empty way in the tags array. Real tags are line
// addresses (byte address >> log2(lineSize), lineSize >= 2), so they
// can never reach 2^64-1 and the sentinel doubles as the valid bit:
// the tag-match scan needs no separate validity check.
const invalidTag = ^uint64(0)

// rngSeed is the initial xorshift state of the Random policy; every
// cache (standalone or replica) starts from the same state so victim
// sequences are bit-reproducible.
const rngSeed = 0x853C49E6748FEA9B

// Per-line flag bits (flags array).
const (
	flagDirty    uint8 = 1 << iota // line modified since fill
	flagPrefetch                   // prefetcher-filled, not yet demand-touched
)

// Evicted describes a line pushed out of a cache.
type Evicted struct {
	Valid    bool
	LineAddr Addr // address of the first byte of the line
	Dirty    bool
	Owner    Owner
	Prefetch bool
}

// Result reports the outcome of an Access or Fill.
type Result struct {
	Hit         bool
	WasPrefetch bool // hit on a line that a prefetcher brought in
	Evicted     Evicted
}

// Cache is a single set-associative cache level. Line state lives in
// dense parallel arrays (see the package comment for why): the lines of
// set si start at base si*stride and its meta and free words sit at
// meta index si*group. A cache New builds owns its arrays, so stride is
// its way count and group 1: base si*ways, meta index si. A replica of a
// set-major Replicas family shares its arrays with the other replicas
// of its band, and its slices start at its own part of set 0.
type Cache struct {
	cfg      Config
	ways     int
	stride   int    // line slots from one set to the next
	group    uint64 // meta/free words from one set to the next
	nsets    uint64
	setMask  uint64 // nsets-1
	setsPow2 bool   // index with &setMask instead of %nsets
	fullMask uint64 // low `ways` bits set
	shift    uint   // log2(lineSize)
	clock    uint64 // monotone access counter for LRU stamps
	rngState uint64 // for Random policy
	stats    []OwnerStats

	tags  []uint64 // line tag per way; invalidTag marks an empty way
	flags []uint8  // dirty/prefetch bits per way
	owner []uint8  // context that filled each way (Owners <= MaxOwners)
	stamp []uint64 // LRU timestamps per way (LRU policy only; nil otherwise)
	// meta is one word of per-set replacement metadata: the pseudo-LRU
	// tree bits (PseudoLRU) or the accessed-bit mask (Nehalem) — one
	// bit per way, so touch and victim selection are O(1) bit ops
	// instead of O(ways) scans.
	meta []uint64
	free []uint64 // per-set bitmask of empty ways (bit w = way w free)

	// Pseudo-LRU kernels' tables for this way count (shared, see
	// plruTouchTab); plruV is nil above plruVictimWays ways.
	plruT *[64]plruMask
	plruV *[1 << plruVictimWays]uint8
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := uint64(cfg.Sets())
	nlines := int(nsets) * cfg.Ways
	var stamp []uint64
	if cfg.Policy == LRU {
		stamp = make([]uint64, nlines)
	}
	c := &Cache{}
	c.init(cfg, cfg.Ways, 1,
		make([]uint64, nlines), make([]uint8, nlines), make([]uint8, nlines),
		stamp, make([]uint64, nsets), make([]uint64, nsets))
	return c, nil
}

// geometry returns a cache holding cfg's derived geometry — set count,
// index mask, way mask, line shift, the stand-alone layout — and no line
// state. init builds on it; peakSetLoad uses one bare to index a
// geometry it never materialises, so every set index in the package
// comes out of setFor.
func geometry(cfg Config) Cache {
	nsets := uint64(cfg.Sets())
	return Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		stride:   cfg.Ways,
		group:    1,
		nsets:    nsets,
		setMask:  nsets - 1,
		setsPow2: nsets&(nsets-1) == 0,
		fullMask: ^uint64(0) >> (64 - uint(cfg.Ways)),
		shift:    uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
	}
}

// init wires a validated config onto the given backing arrays, laid out
// at stride line slots and group meta words per set (the Cache layout;
// stamp is nil unless the policy is LRU), and resets this cache's own
// lines and sets to the empty state: tags and free masks are written,
// flags, owners, stamps and meta must come zeroed. New owns one cache's
// arrays; newReplicas carves many caches out of shared contiguous
// blocks, so both start bit-identical.
func (c *Cache) init(cfg Config, stride int, group uint64, tags []uint64, flags, owner []uint8, stamp, meta, free []uint64) {
	*c = geometry(cfg)
	c.stride = stride
	c.group = group
	c.rngState = rngSeed
	c.stats = make([]OwnerStats, cfg.Owners)
	c.tags = tags
	c.flags = flags
	c.owner = owner
	c.stamp = stamp
	c.meta = meta
	c.free = free
	if cfg.Policy == PseudoLRU {
		lg := bits.TrailingZeros(uint(cfg.Ways))
		c.plruT = &plruTouchTab[lg]
		if cfg.Ways <= plruVictimWays {
			c.plruV = &plruVictimTab[lg]
		}
	}
	for si := uint64(0); si < c.nsets; si++ {
		mi, base := c.at(si)
		tags := c.tags[base : base+c.ways]
		for w := range tags {
			tags[w] = invalidTag
		}
		c.free[mi] = c.fullMask
	}
}

// MustNew is New but panics on configuration errors; for tests and
// fixed built-in configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// index maps a byte address to its line tag and to the meta index and
// line base of the tag's set, in whatever layout the cache has. Every
// address-taking method enters here.
func (c *Cache) index(a Addr) (mi uint64, base int, tag uint64) {
	tag = uint64(a) >> c.shift
	mi, base = c.locate(tag)
	return mi, base, tag
}

// setFor maps an already-decoded line address (tag) to its set index.
// The fused multi-size engine decodes each address once — all replicas
// share one line size, so the tag is shared — and re-derives only the
// per-geometry set index through this entry point. Set counts are
// almost always powers of two (the BySets sweep mode is the
// exception), so the hot path is a mask, not a modulo.
func (c *Cache) setFor(lineAddr uint64) uint64 {
	if c.setsPow2 {
		return lineAddr & c.setMask
	}
	return lineAddr % c.nsets
}

// at returns the meta/free index and the line base of set si. Every
// replica of a set-major band has the same stride and group, so one
// set's numbers serve every replica of the band (FusedHierarchy.Line
// computes the private levels' once per record).
func (c *Cache) at(si uint64) (mi uint64, base int) {
	return si * c.group, int(si) * c.stride
}

// locate is at of the set tag maps to.
func (c *Cache) locate(tag uint64) (mi uint64, base int) {
	return c.at(c.setFor(tag))
}

// own is locate for a cache that owns its arrays (New): the meta index
// is the set index and the base is si*ways, with no group multiply. It
// is how the machine's Hierarchy, all of whose caches New builds,
// indexes them off its hot walk; on a replica it is wrong.
func (c *Cache) own(tag uint64) (si uint64, base int) {
	si = c.setFor(tag)
	return si, int(si) * c.ways
}

func (c *Cache) lineAddr(tag uint64) Addr { return Addr(tag << c.shift) }

// findWay returns the way holding tag in the set starting at base, or
// -1. Every probe is one scan; a per-set hint of the last way hit
// would add a dependent load ahead of it and cost more than the scan it
// saves. Tags are unique within a set, so the scans below record at
// most one match, and dropping the early exit (whose data-dependent
// branch mispredicts on nearly every scan hit) cannot change the
// result. The two set sizes the Table-I machine is made of — 8 ways
// (L1/L2) and 16 (the full L3) — scan through a fixed-length array, so
// the compares are straight-line code with no loop counter; the shrunk
// L3s of a ways sweep and every other geometry take the loop.
func (c *Cache) findWay(base int, tag uint64) int {
	switch c.ways {
	case 8:
		return match8((*[8]uint64)(c.tags[base:base+8]), tag)
	case 16:
		return match16((*[16]uint64)(c.tags[base:base+16]), tag)
	}
	return matchN(c.tags[base:base+c.ways], tag)
}

// match8 is the tag scan of an 8-way set: way of the entry equal to
// tag, or -1. Each compare is a conditional move, not a branch.
//
//lint:hotpath
func match8(t *[8]uint64, tag uint64) int {
	w := -1
	if t[0] == tag {
		w = 0
	}
	if t[1] == tag {
		w = 1
	}
	if t[2] == tag {
		w = 2
	}
	if t[3] == tag {
		w = 3
	}
	if t[4] == tag {
		w = 4
	}
	if t[5] == tag {
		w = 5
	}
	if t[6] == tag {
		w = 6
	}
	if t[7] == tag {
		w = 7
	}
	return w
}

// match16 is the tag scan of a 16-way set: match8 on each half.
//
//lint:hotpath
func match16(t *[16]uint64, tag uint64) int {
	lo := match8((*[8]uint64)(t[:8]), tag)
	hi := match8((*[8]uint64)(t[8:]), tag)
	if hi >= 0 {
		lo = hi + 8
	}
	return lo
}

// matchN is the tag scan of a set of any length.
//
//lint:hotpath
func matchN(t []uint64, tag uint64) int {
	w := -1
	for i, tg := range t {
		if tg == tag {
			w = i
		}
	}
	return w
}

// Access performs a demand access (read or write) by owner. On a hit the
// replacement state is updated and Result.Hit is true. On a miss the line
// is NOT filled: the caller decides whether and when to Fill (the
// hierarchy uses this to model fill paths and inclusivity).
//
//lint:hotpath
func (c *Cache) Access(a Addr, write bool, owner Owner) Result {
	mi, base, tag := c.index(a)
	hit, wasPref := c.demand(mi, base, tag, write, owner)
	return Result{Hit: hit, WasPrefetch: wasPref}
}

// demand is Access after address decode and without the Result
// envelope: the hierarchy's probe path needs only the two booleans, so
// the hot loop skips materialising (and zeroing) the full struct at
// every level.
func (c *Cache) demand(mi uint64, base int, tag uint64, write bool, owner Owner) (hit, wasPref bool) {
	st := &c.stats[owner]
	st.Accesses++
	if write {
		st.Writes++
	}
	w := c.findWay(base, tag)
	if w < 0 {
		st.Misses++
		return false, false
	}
	return true, c.hit(mi, base, w, write, st)
}

// hit applies the demand-hit bookkeeping for way w of the set at meta
// index mi and line base base, and reports whether the line was an
// untouched prefetch.
func (c *Cache) hit(mi uint64, base, w int, write bool, st *OwnerStats) (wasPref bool) {
	st.Hits++
	idx := base + w
	f := c.flags[idx]
	wasPref = f&flagPrefetch != 0
	if wasPref {
		f &^= flagPrefetch
		st.PrefetchHits++
	}
	if write {
		f |= flagDirty
	}
	c.flags[idx] = f
	c.touch(mi, base, w)
	return wasPref
}

// AccessFill is the fused demand path: it resolves hit/miss, victim
// selection and the demand fill in a single set lookup. A hit behaves
// exactly like Access; a miss counts like Access's miss, then installs
// the line like Fill(a, owner, false, false) — Result.Hit stays false
// and Result.Evicted carries the victim. Because a demand fill
// immediately follows its miss with no intervening operation on this
// cache, fusing the two cannot change any replacement decision; it only
// removes the second tag scan (see DESIGN.md §7).
//
//lint:hotpath
func (c *Cache) AccessFill(a Addr, write bool, owner Owner) Result {
	mi, base, tag := c.index(a)
	st := &c.stats[owner]
	st.Accesses++
	if write {
		st.Writes++
	}
	if w := c.findWay(base, tag); w >= 0 {
		return Result{Hit: true, WasPrefetch: c.hit(mi, base, w, write, st)}
	}
	st.Misses++
	return c.fillWay(mi, base, tag, owner, false, false)
}

// Probe reports whether the line holding a is resident, without
// disturbing replacement state or statistics.
//
//lint:hotpath
func (c *Cache) Probe(a Addr) bool {
	_, base, tag := c.index(a)
	return c.findWay(base, tag) >= 0
}

// Fill inserts the line holding a on behalf of owner, evicting a victim
// if the set is full. prefetch marks the line as prefetcher-filled (it
// counts as a fetch but not a demand miss). dirty pre-dirties the line
// (write-allocate fill of a store). Filling an already-resident line just
// refreshes replacement state.
//
//lint:hotpath
func (c *Cache) Fill(a Addr, owner Owner, prefetch, dirty bool) Result {
	mi, base, tag := c.index(a)
	return c.fillTag(mi, base, tag, owner, prefetch, dirty)
}

// fillTag is Fill after address decode: the caller supplies the line
// tag and its set's meta index and line base, so the prefetch paths of
// both hierarchy walks fill a tag they already hold.
func (c *Cache) fillTag(mi uint64, base int, tag uint64, owner Owner, prefetch, dirty bool) Result {
	// Already resident (e.g. a racing prefetch): refresh and return.
	if w := c.findWay(base, tag); w >= 0 {
		idx := base + w
		if dirty {
			c.flags[idx] |= flagDirty
		}
		if !prefetch {
			c.flags[idx] &^= flagPrefetch
			c.touch(mi, base, w)
		}
		return Result{Hit: true}
	}
	return c.fillWay(mi, base, tag, owner, prefetch, dirty)
}

// FillMissed is Fill for a line the caller has just observed to be
// absent: it skips the residency re-scan. The contract is that no fill
// of a can have happened on this cache since the observing Access — in
// the hierarchy the only operations between a private-level miss and
// its deferred fill are fills of *other* levels and back-invalidations,
// which never add lines here, so the miss observation stays valid.
//
//lint:hotpath
func (c *Cache) FillMissed(a Addr, owner Owner, prefetch, dirty bool) Result {
	mi, base, tag := c.index(a)
	return c.fillWay(mi, base, tag, owner, prefetch, dirty)
}

// fillPrivateAt is the fused engine's private-level (L1/L2) fill:
// FillMissed with owner 0 and no prefetch mark at the meta index and
// set base the caller's demand probe already computed, with the statistics writes
// elided (private stats never feed a sweep curve) and a dirty victim
// reported as a line *tag* — all fused levels share one line size, so
// the writeback chase re-derives set indices from the tag without the
// address round trip. Owner bytes stay zero: private caches are
// single-owner. The state evolution — victim choice, flags, replacement
// touch — is exactly fillWay's; Hierarchy.AccessPacked carries
// the same fill inline with the statistics kept.
func (c *Cache) fillPrivateAt(mi uint64, base int, tag uint64, dirty bool) (victimTag uint64, wb bool) {
	var victim int
	if fm := c.free[mi]; fm != 0 {
		victim = bits.TrailingZeros64(fm)
		c.free[mi] = fm &^ (1 << uint(victim))
	} else {
		// victim() open-coded: the dispatchers victim and touch are over
		// the inlining budget (-m=2: cost 181 and 104 against 80) while
		// every per-policy leaf is under it (plruVictim 53, nehalemVictim
		// 21, plruTouch 27, nehalemTouch 44), so the general methods cost
		// a call each — here the dispatch runs inline and the leaves
		// inline into it. The selections are operation-for-operation
		// victim()'s arms.
		switch c.cfg.Policy {
		case LRU:
			st := c.stamp[base : base+c.ways]
			best, bestStamp := 0, st[0]
			for w := 1; w < len(st); w++ {
				if st[w] < bestStamp {
					best, bestStamp = w, st[w]
				}
			}
			victim = best
		case PseudoLRU:
			victim = c.plruVictim(mi)
		case Nehalem:
			victim = c.nehalemVictim(mi)
		case Random:
			x := c.rngState
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			c.rngState = x
			victim = int((x * 0x2545F4914F6CDD1D) % uint64(c.ways))
		}
		if c.flags[base+victim]&flagDirty != 0 {
			victimTag = c.tags[base+victim]
			wb = true
		}
	}
	idx := base + victim
	c.tags[idx] = tag
	if dirty {
		c.flags[idx] = flagDirty
	} else {
		c.flags[idx] = 0
	}
	// touch() open-coded, same dispatch-inlining argument as above.
	switch c.cfg.Policy {
	case LRU:
		c.clock++
		c.stamp[idx] = c.clock
	case PseudoLRU:
		c.plruTouch(mi, victim)
	case Nehalem:
		c.nehalemTouch(mi, victim)
	}
	return victimTag, wb
}

// invalidatePrivate is Invalidate after address decode, reduced to the
// booleans the back-invalidation path consumes. clearLine performs the
// identical state transition.
func (c *Cache) invalidatePrivate(mi uint64, base int, tag uint64) (dirty, found bool) {
	w := c.findWay(base, tag)
	if w < 0 {
		return false, false
	}
	dirty = c.flags[base+w]&flagDirty != 0
	c.clearLine(mi, base, w)
	return dirty, true
}

// markDirtyTag is MarkDirty after address decode, on the set at base.
func (c *Cache) markDirtyTag(base int, tag uint64) bool {
	if w := c.findWay(base, tag); w >= 0 {
		c.flags[base+w] |= flagDirty
		return true
	}
	return false
}

// fillWay installs tag into the set at meta index mi and line base
// base: count the fill, prefer the lowest-numbered empty way (one bit
// op via the per-set free mask, same way the reference layout's
// first-invalid scan finds), otherwise evict the policy's victim.
func (c *Cache) fillWay(mi uint64, base int, tag uint64, owner Owner, prefetch, dirty bool) Result {
	st := &c.stats[owner]
	st.Fills++
	if prefetch {
		st.PrefetchFills++
	}

	var res Result
	var victim int
	if fm := c.free[mi]; fm != 0 {
		victim = bits.TrailingZeros64(fm)
		c.free[mi] = fm &^ (1 << uint(victim))
	} else {
		victim = c.victim(mi, base)
		idx := base + victim
		vf := c.flags[idx]
		vo := Owner(c.owner[idx])
		res.Evicted = Evicted{
			Valid:    true,
			LineAddr: c.lineAddr(c.tags[idx]),
			Dirty:    vf&flagDirty != 0,
			Owner:    vo,
			Prefetch: vf&flagPrefetch != 0,
		}
		c.stats[vo].Evictions++
		if vf&flagDirty != 0 {
			c.stats[vo].Writebacks++
		}
	}
	idx := base + victim
	c.tags[idx] = tag
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if prefetch {
		f |= flagPrefetch
	}
	c.flags[idx] = f
	c.owner[idx] = uint8(owner)
	c.touch(mi, base, victim)
	return res
}

// MarkDirty sets the dirty bit of the line holding a if resident,
// without touching replacement state or statistics. It models a
// writeback arriving from an upper level. It reports whether the line
// was found.
func (c *Cache) MarkDirty(a Addr) bool {
	_, base, tag := c.index(a)
	return c.markDirtyTag(base, tag)
}

// Invalidate removes the line holding a if resident, returning its
// eviction record (used for back-invalidation in inclusive hierarchies).
func (c *Cache) Invalidate(a Addr) (Evicted, bool) {
	mi, base, tag := c.index(a)
	return c.invalidateTag(mi, base, tag)
}

// invalidateTag is Invalidate after address decode.
func (c *Cache) invalidateTag(mi uint64, base int, tag uint64) (Evicted, bool) {
	w := c.findWay(base, tag)
	if w < 0 {
		return Evicted{}, false
	}
	idx := base + w
	f := c.flags[idx]
	ev := Evicted{
		Valid:    true,
		LineAddr: c.lineAddr(c.tags[idx]),
		Dirty:    f&flagDirty != 0,
		Owner:    Owner(c.owner[idx]),
		Prefetch: f&flagPrefetch != 0,
	}
	c.clearLine(mi, base, w)
	return ev, true
}

// clearLine empties way w of the set at meta index mi and line base
// base: tag sentinel, flags, owner, free-mask bit, and the way's
// replacement state — its stamp (LRU) or its accessed bit (Nehalem).
// The pseudo-LRU tree is deliberately left alone, as in the reference
// model.
func (c *Cache) clearLine(mi uint64, base, w int) {
	idx := base + w
	c.tags[idx] = invalidTag
	c.flags[idx] = 0
	c.owner[idx] = 0
	c.free[mi] |= 1 << uint(w)
	switch c.cfg.Policy {
	case LRU:
		c.stamp[idx] = 0
	case Nehalem:
		c.meta[mi] &^= 1 << uint(w)
	}
}

// Flush invalidates every line, resetting contents but not statistics.
// Like every whole-cache walk it goes set by set, so on a replica it
// touches the replica's own part of each set and nothing else.
func (c *Cache) Flush() {
	for si := uint64(0); si < c.nsets; si++ {
		mi, base := c.at(si)
		end := base + c.ways
		tags := c.tags[base:end]
		for w := range tags {
			tags[w] = invalidTag
		}
		clear(c.flags[base:end])
		clear(c.owner[base:end])
		if c.stamp != nil { // LRU only
			clear(c.stamp[base:end])
		}
		c.meta[mi] = 0
		c.free[mi] = c.fullMask
	}
}

// ResidentLines returns how many valid lines owner currently holds.
// It is O(cache size); intended for assertions and occupancy sampling,
// not hot paths.
func (c *Cache) ResidentLines(owner Owner) int {
	n := 0
	if owner < 0 || owner >= MaxOwners {
		return 0
	}
	ow := uint8(owner)
	for si := uint64(0); si < c.nsets; si++ {
		_, base := c.at(si)
		for i, tg := range c.tags[base : base+c.ways] {
			if tg != invalidTag && c.owner[base+i] == ow {
				n++
			}
		}
	}
	return n
}

// ResidentBytes returns how many bytes owner currently holds.
func (c *Cache) ResidentBytes(owner Owner) int64 {
	return int64(c.ResidentLines(owner)) * c.cfg.LineSize
}

// FootprintFits is the fused sweep's footprint test: fits[k] reports
// whether a cache of geometry cands[k] (validated, any policy) could
// hold every line now resident in c at the same time. A cache that has
// never evicted holds every line it was ever asked to fill, so when
// those lines fit a candidate, a candidate-shaped cache fed the same
// accesses always finds a free way too and never evicts either — it
// hits and misses exactly where c did. A candidate fits iff it has c's
// line size (c's tags mean nothing to another) and seats at most its
// Ways of the lines in its fullest set (peakSetLoad). That load depends
// on the candidate's set count alone, so it is computed once per
// distinct set count: one scan for every size of a ByWays sweep.
func (c *Cache) FootprintFits(cands []Config) []bool {
	fits := make([]bool, len(cands))
	peak := make(map[int64]int, 1)
	for k, cand := range cands {
		if cand.LineSize != c.cfg.LineSize {
			continue
		}
		p, ok := peak[cand.Sets()]
		if !ok {
			p = c.peakSetLoad(cand)
			peak[cand.Sets()] = p
		}
		fits[k] = p <= cand.Ways
	}
	return fits
}

// peakSetLoad returns the most lines now resident in c that geometry g
// (c's line size, any ways) maps to one of its sets. g's set index
// comes from setFor on a bare geometry, the mask-or-modulo rule every
// access uses. Under c's own set count every line stays in its set, so
// the load is the fullest set's occupancy; any other set count takes
// one pass over the resident lines. The counters are int32, not bytes:
// a full 8192-set 16-way cache seen through 512 sets puts 256 lines in
// every set.
func (c *Cache) peakSetLoad(g Config) int {
	peak := 0
	if uint64(g.Sets()) == c.nsets {
		for si := uint64(0); si < c.nsets; si++ {
			mi, _ := c.at(si)
			peak = max(peak, bits.OnesCount64(c.fullMask&^c.free[mi]))
		}
		return peak
	}
	gc := geometry(g)
	load := make([]int32, gc.nsets)
	for si := uint64(0); si < c.nsets; si++ {
		mi, base := c.at(si)
		if c.free[mi] == c.fullMask {
			continue // empty set
		}
		for _, tag := range c.tags[base : base+c.ways] {
			if tag == invalidTag {
				continue
			}
			gi := gc.setFor(tag)
			load[gi]++
			peak = max(peak, int(load[gi]))
		}
	}
	return peak
}

// LineInfo describes one valid line during a ForEachLine walk.
type LineInfo struct {
	Set      int
	Way      int
	LineAddr Addr // address of the first byte of the line
	Owner    Owner
	Dirty    bool
	Prefetch bool
}

// ForEachLine calls fn for every valid line in set/way order, stopping
// early if fn returns false. It is O(cache size) and read-only;
// intended for invariant checkers (inclusivity, residency accounting)
// and diagnostics, not hot paths.
func (c *Cache) ForEachLine(fn func(LineInfo) bool) {
	for si := uint64(0); si < c.nsets; si++ {
		_, base := c.at(si)
		for w := 0; w < c.ways; w++ {
			idx := base + w
			tg := c.tags[idx]
			if tg == invalidTag {
				continue
			}
			f := c.flags[idx]
			if !fn(LineInfo{
				Set:      int(si),
				Way:      w,
				LineAddr: c.lineAddr(tg),
				Owner:    Owner(c.owner[idx]),
				Dirty:    f&flagDirty != 0,
				Prefetch: f&flagPrefetch != 0,
			}) {
				return
			}
		}
	}
}

// touch updates replacement metadata for a hit on or (re)fill of way w
// in the set at meta index mi and line base base.
func (c *Cache) touch(mi uint64, base, w int) {
	switch c.cfg.Policy {
	case LRU:
		c.clock++
		c.stamp[base+w] = c.clock
	case PseudoLRU:
		c.plruTouch(mi, w)
	case Nehalem:
		c.nehalemTouch(mi, w)
	case Random:
		// stateless
	}
}

// victim selects a way to evict from a full set. The fused engine's
// private-fill path (fillPrivateAt) and FusedHierarchy.Access carry
// open-coded copies of this dispatch (it is over the inlining budget,
// see fillPrivateAt): the LRU and Random arms are written out there and
// must match these, the PseudoLRU and Nehalem arms call the same leaves.
// The victim choice is the bit-identity contract.
func (c *Cache) victim(mi uint64, base int) int {
	switch c.cfg.Policy {
	case LRU:
		st := c.stamp[base : base+c.ways]
		best, bestStamp := 0, st[0]
		for w := 1; w < len(st); w++ {
			if st[w] < bestStamp {
				best, bestStamp = w, st[w]
			}
		}
		return best
	case PseudoLRU:
		return c.plruVictim(mi)
	case Nehalem:
		return c.nehalemVictim(mi)
	case Random:
		x := c.rngState
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		c.rngState = x
		return int((x * 0x2545F4914F6CDD1D) % uint64(c.ways))
	}
	return 0
}

// --- Nehalem accessed-bit policy (paper §II-B2) ---

// The accessed bits live in meta[set], one bit per way, so the "are all
// valid ways' bits set" check is a mask compare, not a scan. A way's
// accessed bit is set iff the reference model's stamp[w] == 1: fills
// and hits set it here and in touch, Invalidate clears it in clearLine,
// and the clear-all-but-touched rule below zeroes the rest — invalid
// ways always carry a zero bit in both layouts.

func (c *Cache) nehalemTouch(mi uint64, w int) {
	bit := uint64(1) << uint(w)
	m := c.meta[mi] | bit
	// If every valid way's accessed bit is now set, clear all except
	// the one just touched ("when this last cache-line is accessed its
	// access bit is set and all other accessed bits are cleared"). The
	// touched way is always valid by the time touch runs.
	if valid := c.fullMask &^ c.free[mi]; valid&^m == 0 {
		m = bit
	}
	c.meta[mi] = m
}

func (c *Cache) nehalemVictim(mi uint64) int {
	unset := c.fullMask &^ c.meta[mi]
	if unset == 0 {
		// All bits set can only happen transiently for 1-way caches.
		return 0
	}
	return bits.TrailingZeros64(unset)
}

// --- Tree pseudo-LRU ---

// The tree is stored as bits of meta[set], node 1 is the root, node i
// has children 2i and 2i+1; a 0 bit means "left subtree is older". Ways
// are a power of two, so the leaf below which way w sits is node
// ways+w, and its ancestors are that number shifted right.
//
// A touch rewrites the nodes on the touched way's root-to-leaf path and
// nothing else, so it is one mask pair per way; a victim choice reads
// the same bits back, so for small trees it is one byte lookup on the
// whole tree word. Both tables depend on the way count alone and are
// shared by every cache of that associativity: a replica group holds
// dozens of caches, and private copies would crowd the line state out
// of the host L1.

// plruMask is the touch of one way: the tree bits on its root-to-leaf
// path (clr), and those of them that must end up 1 to point away from
// it (set).
type plruMask struct{ clr, set uint64 }

// plruVictimWays is the largest associativity whose whole tree word
// (bits 1..ways-1) indexes a byte table.
const plruVictimWays = 8

// plruTouchTab[log2 ways][way] and plruVictimTab[log2 ways][tree word]
// cover every pseudo-LRU geometry Config.Validate admits: touch masks
// for the seven power-of-two way counts up to 64, victim bytes for the
// four up to plruVictimWays. Built once, read-only afterwards.
var plruTouchTab, plruVictimTab = buildPLRUTables()

func buildPLRUTables() (touch [7][64]plruMask, victim [4][1 << plruVictimWays]uint8) {
	for lg := range touch {
		ways := 1 << lg
		for w := 0; w < ways; w++ {
			m := &touch[lg][w]
			for node := ways + w; node > 1; node >>= 1 {
				parent := uint(node >> 1)
				m.clr |= 1 << parent
				if node&1 == 0 {
					// w is under the left child: point the bit right.
					m.set |= 1 << parent
				}
			}
		}
	}
	for lg := range victim {
		for tr := range victim[lg] {
			victim[lg][tr] = uint8(plruDescend(uint64(tr), 1<<lg))
		}
	}
	return touch, victim
}

func (c *Cache) plruTouch(mi uint64, w int) {
	m := &c.plruT[w&63] // w < ways <= 64; the mask only drops the bounds check
	c.meta[mi] = c.meta[mi]&^m.clr | m.set
}

func (c *Cache) plruVictim(mi uint64) int {
	tr := c.meta[mi]
	if c.plruV != nil {
		return int(c.plruV[uint8(tr)])
	}
	return plruDescend(tr, c.ways)
}

// plruDescend follows the tree bits of tr from the root to the victim
// leaf of a ways-way tree. Each step appends the node's bit to the node
// number — 0 descends left, 1 right — and stops at leaf ways+victim:
// nothing branches on the bit, and the trip count is fixed per cache.
//
//lint:hotpath
func plruDescend(tr uint64, ways int) int {
	node := 1
	for node < ways {
		node = 2*node + int(tr>>uint(node)&1)
	}
	return node - ways
}
