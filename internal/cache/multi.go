package cache

import (
	"fmt"
	"math/bits"

	"cachepirate/internal/prefetch"
)

// Replicas is a family of caches evaluated in lockstep by the fused
// multi-size sweep: one Cache per L3 size under test, with every dense
// line-state array (tags, flags, owners, stamps, per-set metadata)
// carved out of a single contiguous backing block in replica order —
// a [replica][set][way] extension of the single-cache SoA layout — so
// the size-inner loop walks one allocation instead of hopping between
// independently allocated caches. Each replica is bit-identical to a
// freshly New()ed cache of the same config: the fused engine's results
// must match the per-size path exactly, and sharing init with New is
// what makes that hold from the first access.
type Replicas struct {
	reps []Cache
}

// lineStore is the backing block a Replicas family is carved from: one
// array per Cache line-state field, indexed by line or by set. stamp
// holds the lines of the LRU replicas only.
type lineStore struct {
	tags  []uint64
	flags []uint8
	owner []int32
	stamp []uint64
	meta  []uint64
	free  []uint64
}

// slots returns how many line slots and set slots a cache of this
// geometry occupies in a lineStore.
func (c Config) slots() (lines, sets int) {
	sets = int(c.Sets())
	return sets * c.Ways, sets
}

// grow makes the store hold at least lines line slots, stamps stamp
// slots and sets set slots: an array too small is replaced by one of
// exactly the size asked, its contents dropped; the others are kept.
func (s *lineStore) grow(lines, stamps, sets int) {
	if len(s.tags) < lines {
		s.tags = make([]uint64, lines)
		s.flags = make([]uint8, lines)
		s.owner = make([]int32, lines)
	}
	if len(s.stamp) < stamps {
		s.stamp = make([]uint64, stamps)
	}
	if len(s.meta) < sets {
		s.meta = make([]uint64, sets)
		s.free = make([]uint64, sets)
	}
}

// fit grows the store as grow does and zeroes the first entries of the
// arrays Cache.init expects zeroed (flags, owner, stamp, meta). tags
// and free are init's to fill.
func (s *lineStore) fit(lines, stamps, sets int) {
	s.grow(lines, stamps, sets)
	clear(s.flags[:lines])
	clear(s.owner[:lines])
	clear(s.stamp[:stamps])
	clear(s.meta[:sets])
}

// NewReplicas builds one cache per config over shared contiguous
// backing arrays. All configs must agree on line size (the fused
// engine decodes each address once and fans the line tag out to every
// replica).
func NewReplicas(cfgs []Config) (*Replicas, error) {
	return newReplicas(cfgs, &lineStore{})
}

// newReplicas is NewReplicas over a caller-owned store, which a later
// family may reuse once this one is dead.
func newReplicas(cfgs []Config, s *lineStore) (*Replicas, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: replicas need at least one config")
	}
	lines, stamps, sets := 0, 0, 0
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.LineSize != cfgs[0].LineSize {
			return nil, fmt.Errorf("cache: replica %d line size %d != %d", i, cfg.LineSize, cfgs[0].LineSize)
		}
		nl, ns := cfg.slots()
		lines += nl
		sets += ns
		if cfg.Policy == LRU {
			stamps += nl
		}
	}
	s.fit(lines, stamps, sets)
	r := &Replicas{reps: make([]Cache, len(cfgs))}
	lo, to, so := 0, 0, 0
	for i, cfg := range cfgs {
		nl, ns := cfg.slots()
		var stamp []uint64
		if cfg.Policy == LRU {
			stamp = s.stamp[to : to+nl : to+nl]
			to += nl
		}
		r.reps[i].init(cfg,
			s.tags[lo:lo+nl:lo+nl], s.flags[lo:lo+nl:lo+nl], s.owner[lo:lo+nl:lo+nl],
			stamp, s.meta[so:so+ns:so+ns], s.free[so:so+ns:so+ns])
		lo += nl
		so += ns
	}
	return r, nil
}

// Len returns the replica count.
func (r *Replicas) Len() int { return len(r.reps) }

// Rep returns replica k; the full Cache API applies to it.
func (r *Replicas) Rep(k int) *Cache { return &r.reps[k] }

// FusedHierarchy advances one single-core cache hierarchy per L3
// geometry under the same demand stream: per-replica private L1/L2,
// per-replica L3, and per-replica prefetcher, each group held in one
// contiguous Replicas block. Back-invalidations from a shrunk L3 differ
// by size, so the private levels (and therefore the prefetcher training
// streams) genuinely diverge across replicas and must all be
// replicated; what is shared is the trace iteration and the address
// decode, which Access performs once per call. Replicas may differ in
// L3 ways and in L3 sets alike — every set index is derived per replica
// from the shared line tag — so both sweep geometries fuse.
//
// Access(k, addr, write) is step-for-step the same state evolution and
// Outcome computation as Hierarchy.Access on a 1-core hierarchy with
// replica k's L3 — the equivalence the fused sweep's bit-identical
// guarantee rests on (see conformance.CheckSweepEquivalence).
type FusedHierarchy struct {
	l1, l2, l3 *Replicas
	pf         []prefetch.Prefetcher

	lineSize  int64
	lineShift uint
	hasPF     bool
}

// FusedBacking is the line-state storage of a FusedHierarchy, held
// apart from it so that hierarchies built one after another — the
// replica groups of a sweep, and the sweeps of a process — reuse one
// allocation. The zero value is empty; each hierarchy built on it grows
// it to what that hierarchy needs, so a backing ends up the size of the
// largest hierarchy built on it, and one that is large enough is
// cleared in place. Building a hierarchy on a backing re-initialises
// the storage, so only the most recently built hierarchy is valid.
type FusedBacking struct {
	l1, l2, l3 lineStore
}

// Cover grows b, where it is smaller, to o's size, so that any
// hierarchy built on o so far builds on b without allocating. b's
// contents are not kept: the next hierarchy built on b clears them.
func (b *FusedBacking) Cover(o *FusedBacking) {
	for _, p := range [][2]*lineStore{{&b.l1, &o.l1}, {&b.l2, &o.l2}, {&b.l3, &o.l3}} {
		p[0].grow(len(p[1].tags), len(p[1].stamp), len(p[1].meta))
	}
}

// NewFusedHierarchy builds one hierarchy replica per entry of l3Ways:
// cfg's L1/L2 are replicated unchanged, and cfg.L3 is way-shrunk to
// l3Ways[k] with its size scaled proportionally (constant sets — the
// ByWays sweep geometry). cfg.Cores is ignored; every replica is
// single-core.
func NewFusedHierarchy(cfg HierarchyConfig, l3Ways []int) (*FusedHierarchy, error) {
	waySize := cfg.L3.Size / int64(cfg.L3.Ways)
	l3 := make([]Config, len(l3Ways))
	for k, ways := range l3Ways {
		l3[k] = cfg.L3
		l3[k].Size = waySize * int64(ways)
		l3[k].Ways = ways
	}
	return NewFusedHierarchyL3(cfg, l3, nil)
}

// NewFusedHierarchyL3 builds one hierarchy replica per L3 config:
// cfg's L1/L2 are replicated unchanged under each l3[k] (cfg.L3 and
// cfg.Cores are ignored; every replica is single-core). The line state
// is carved from b, invalidating any hierarchy built on b before; a
// nil b gives the hierarchy storage of its own.
func NewFusedHierarchyL3(cfg HierarchyConfig, l3 []Config, b *FusedBacking) (*FusedHierarchy, error) {
	if len(l3) == 0 {
		return nil, fmt.Errorf("cache: fused hierarchy needs at least one L3 size")
	}
	if b == nil {
		b = &FusedBacking{}
	}
	cfg.Cores = 1
	l1cfgs := make([]Config, len(l3))
	l2cfgs := make([]Config, len(l3))
	l3cfgs := make([]Config, len(l3))
	for k := range l3 {
		rc := cfg
		rc.L3 = l3[k]
		if err := rc.Validate(); err != nil {
			return nil, err
		}
		l1cfgs[k] = cfg.L1
		l1cfgs[k].Owners = 1
		l1cfgs[k].Name = "L1.0"
		l2cfgs[k] = cfg.L2
		l2cfgs[k].Owners = 1
		l2cfgs[k].Name = "L2.0"
		l3cfgs[k] = l3[k]
		l3cfgs[k].Owners = 1
		l3cfgs[k].Name = "L3"
	}
	f := &FusedHierarchy{
		lineSize:  cfg.L1.LineSize,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.L1.LineSize))),
		hasPF:     cfg.NewPrefetcher != nil,
		pf:        make([]prefetch.Prefetcher, len(l3)),
	}
	var err error
	if f.l1, err = newReplicas(l1cfgs, &b.l1); err != nil {
		return nil, err
	}
	if f.l2, err = newReplicas(l2cfgs, &b.l2); err != nil {
		return nil, err
	}
	if f.l3, err = newReplicas(l3cfgs, &b.l3); err != nil {
		return nil, err
	}
	for k := range f.pf {
		if cfg.NewPrefetcher != nil {
			f.pf[k] = cfg.NewPrefetcher()
		} else {
			f.pf[k] = prefetch.None{}
		}
	}
	return f, nil
}

// Replicas returns the number of hierarchy replicas.
func (f *FusedHierarchy) Replicas() int { return f.l3.Len() }

// L3 returns replica k's last-level cache (counter reads, assertions).
func (f *FusedHierarchy) L3(k int) *Cache { return f.l3.Rep(k) }

// L1 returns replica k's private L1.
func (f *FusedHierarchy) L1(k int) *Cache { return f.l1.Rep(k) }

// L2 returns replica k's private L2.
func (f *FusedHierarchy) L2(k int) *Cache { return f.l2.Rep(k) }

// LineSize returns the shared line size in bytes.
func (f *FusedHierarchy) LineSize() int64 { return f.lineSize }

// PackedOutcome is an Outcome in one machine word — the form the fused
// sweep's record loop consumes. An Outcome is six fields and 40 bytes,
// more than the compiler keeps in registers: returned by value it is
// stored field by field and reloaded, once per record. The word holds
// the served level, the prefetch-hit bit and two line counts, prefetch
// fills and DRAM writebacks; the other Outcome fields follow from those,
// because the walk uses the L3 port once for a demand access that
// reaches the L3 and once per prefetch fill, and reads one DRAM line
// for a demand miss and one per prefetch fill. Counts are in lines: all
// levels of a fused hierarchy share one line size.
//
// A private-level hit that moved no data is the bare level, so the
// record loop recognises the two common cases by comparing the whole
// word with PackedL1Hit or PackedL2Hit.
type PackedOutcome uint64

const (
	// PackedL1Hit and PackedL2Hit are the whole word of an access served
	// by L1, and of one served by L2 whose L1 fill wrote nothing back to
	// DRAM.
	PackedL1Hit = PackedOutcome(LevelL1)
	PackedL2Hit = PackedOutcome(LevelL2)

	packLevelMask   PackedOutcome = 3      // bits 0-1: ServedBy
	packPrefetchHit PackedOutcome = 1 << 2 // bit 2: PrefetchHit
	// Bits 3-32 count prefetch fills and bits 33-63 DRAM writeback lines.
	// One access adds at most one of each per prefetcher proposal plus
	// three writebacks, so neither field can carry into its neighbour.
	packPrefetchShift               = 3
	packWriteShift                  = 33
	packPrefetch      PackedOutcome = 1 << packPrefetchShift
	packWriteLine     PackedOutcome = 1 << packWriteShift
)

// ServedBy returns the level that served the access.
func (p PackedOutcome) ServedBy() Level { return Level(p & packLevelMask) }

// PrefetchHit reports whether an L3 line a prefetcher brought in served
// the access.
func (p PackedOutcome) PrefetchHit() bool { return p&packPrefetchHit != 0 }

// Prefetches returns how many lines the prefetcher fetched from memory.
func (p PackedOutcome) Prefetches() int64 {
	return int64(p>>packPrefetchShift) & (1<<(packWriteShift-packPrefetchShift) - 1)
}

// L3Uses returns the L3 port uses: the demand lookup, if the access
// got that far, and one per prefetch fill.
func (p PackedOutcome) L3Uses() int64 {
	n := p.Prefetches()
	if p.ServedBy() >= LevelL3 {
		n++
	}
	return n
}

// ReadLines returns the lines read from DRAM: the demand line on an L3
// miss and one per prefetch fill.
func (p PackedOutcome) ReadLines() int64 {
	n := p.Prefetches()
	if p.ServedBy() == LevelMem {
		n++
	}
	return n
}

// WriteLines returns the lines written back to DRAM.
func (p PackedOutcome) WriteLines() int64 { return int64(p >> packWriteShift) }

// Outcome expands the word for a hierarchy of the given line size.
func (p PackedOutcome) Outcome(lineSize int64) Outcome {
	return Outcome{
		ServedBy:      p.ServedBy(),
		PrefetchHit:   p.PrefetchHit(),
		MemReadBytes:  p.ReadLines() * lineSize,
		MemWriteBytes: p.WriteLines() * lineSize,
		L3Accesses:    int(p.L3Uses()),
		Prefetches:    int(p.Prefetches()),
	}
}

// Access performs one demand access on hierarchy replica k and returns
// its outcome: AccessPacked's word, expanded.
func (f *FusedHierarchy) Access(k int, addr Addr, write bool) Outcome {
	return f.AccessPacked(k, addr, write).Outcome(f.lineSize)
}

// AccessPacked performs one demand access on hierarchy replica k and
// returns its outcome as one word. The address is decoded to a line tag
// once; per-level set indices are one mask (or modulo) each off that
// tag.
//
// The walk is Hierarchy.Access flattened into a single function: the
// per-level demand probes, the L3 access-and-fill, the victim
// back-invalidation and the private-level fills run inline on
// precomputed set bases, with the private-level (L1/L2) statistics
// elided. That elision cannot change any observable outcome: private
// stats never feed a sweep curve (the counter facade reads only core
// clocks and L3/DRAM events), and private levels never hold
// prefetch-marked lines, so the flag read-modify-write on clean read
// hits is value-identical too. The L3 keeps its complete counter set —
// those are the measured events. Every state transition below is
// step-for-step the corresponding Cache method (demand, accessFillTag,
// fillWay, Invalidate); conformance.CheckSweepEquivalence pins the
// equivalence against per-size machines.
//
//lint:hotpath
func (f *FusedHierarchy) AccessPacked(k int, addr Addr, write bool) PackedOutcome {
	l1 := &f.l1.reps[k]
	l2 := &f.l2.reps[k]
	l3 := &f.l3.reps[k]
	tag := uint64(addr) >> f.lineShift

	// L1 demand probe: demand()'s state evolution, stats elided. The
	// replacement touches here and below open-code touch()'s policy
	// dispatch: the switch itself is over the inlining budget though
	// every leaf is under it (costs at fillPrivateAt), so calling touch
	// costs a real call per level per record, while the dispatch written
	// at the call site inlines its per-policy leaves.
	si1 := l1.setFor(tag)
	base1 := int(si1) * l1.ways
	if w := l1.findWay(base1, tag); w >= 0 {
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

	// L2 demand probe.
	si2 := l2.setFor(tag)
	base2 := int(si2) * l2.ways
	if w := l2.findWay(base2, tag); w >= 0 {
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
		return PackedL2Hit + fillL1At(l1, l2, l3, si1, base1, tag, write)
	}

	// The access reaches this replica's L3 — one port use, which the
	// served level (L3 or memory) implies — and the replica's prefetcher
	// observes the demand line stream here. This is accessFillTag
	// specialised to the single owner: the stats pointer is hoisted once
	// and the owner array (always zero in a replica) is neither read nor
	// written.
	var out PackedOutcome
	si3 := l3.setFor(tag)
	base3 := int(si3) * l3.ways
	st := &l3.stats[0]
	st.Accesses++
	if write {
		st.Writes++
	}
	w3 := l3.findWay(base3, tag)
	if w3 >= 0 {
		// hit() inline.
		st.Hits++
		idx := base3 + w3
		fl := l3.flags[idx]
		if fl&flagPrefetch != 0 {
			fl &^= flagPrefetch
			st.PrefetchHits++
			out |= packPrefetchHit
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
		// Miss: fillWay inline (demand fills install clean lines), with
		// the victim's back-invalidation folded into the eviction arm —
		// it touches only L1/L2 state, so running it before the new
		// line's install commutes with the install.
		st.Misses++
		st.Fills++
		out |= PackedOutcome(LevelMem) // and with it the demand line's DRAM read
		var victim int
		if fm := l3.free[si3]; fm != 0 {
			victim = bits.TrailingZeros64(fm)
			l3.free[si3] = fm &^ (1 << uint(victim))
		} else {
			// victim() open-coded, same call-elision as the touches.
			switch l3.cfg.Policy {
			case LRU:
				// Branchless min-scan; see the private fills below.
				st := l3.stamp[base3 : base3+l3.ways]
				best, bestStamp := 0, st[0]
				for w := 1; w < len(st); w++ {
					s := st[w]
					lt := int64(s-bestStamp) >> 63
					best += int(lt) & (w - best)
					bestStamp += uint64(lt) & (s - bestStamp)
				}
				victim = best
			case PseudoLRU:
				victim = l3.plruVictim(si3)
			case Nehalem:
				victim = l3.nehalemVictim(si3)
			case Random:
				x := l3.rngState
				x ^= x >> 12
				x ^= x << 25
				x ^= x >> 27
				l3.rngState = x
				victim = int((x * 0x2545F4914F6CDD1D) % uint64(l3.ways))
			}
			idx := base3 + victim
			st.Evictions++
			vDirty := l3.flags[idx]&flagDirty != 0
			if vDirty {
				st.Writebacks++
			}
			vt := l3.tags[idx]
			if d, ok := l1.invalidatePrivate(l1.setFor(vt), vt); ok && d {
				vDirty = true
			}
			if d, ok := l2.invalidatePrivate(l2.setFor(vt), vt); ok && d {
				vDirty = true
			}
			if vDirty {
				out += packWriteLine
			}
		}
		idx := base3 + victim
		l3.tags[idx] = tag
		l3.flags[idx] = 0
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
	if f.hasPF {
		out += f.trainPrefetcher(k, tag, w3 < 0)
	}

	// Fill the private levels at the bases the probes computed. Both
	// fills are fillPrivateAt open-coded — at this loop's rate the call
	// itself is measurable — with each writeback chase hoisted into the
	// eviction arm: the chase reads and writes only the *other* levels'
	// state, so running it before this level's install commutes. The
	// fills still run strictly in order (all of L2, then all of L1),
	// matching the helper-based sequence state change for state change.

	// L2 fill; a dirty victim writes back to L3 or, if absent, DRAM.
	var v2 int
	if fm := l2.free[si2]; fm != 0 {
		v2 = bits.TrailingZeros64(fm)
		l2.free[si2] = fm &^ (1 << uint(v2))
	} else {
		switch l2.cfg.Policy {
		case LRU:
			// Branchless min-scan: the update-best branch of the plain
			// scan is data-dependent and mispredicts at this loop's
			// rate. Stamps are per-cache touch counters, far below
			// 2^63, so the subtraction's sign bit is a reliable
			// less-than; strict less-than keeps the first minimum,
			// matching victim()'s tie-break exactly.
			st := l2.stamp[base2 : base2+l2.ways]
			best, bestStamp := 0, st[0]
			for w := 1; w < len(st); w++ {
				s := st[w]
				lt := int64(s-bestStamp) >> 63 // -1 iff s < bestStamp
				best += int(lt) & (w - best)
				bestStamp += uint64(lt) & (s - bestStamp)
			}
			v2 = best
		case PseudoLRU:
			v2 = l2.plruVictim(si2)
		case Nehalem:
			v2 = l2.nehalemVictim(si2)
		case Random:
			x := l2.rngState
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			l2.rngState = x
			v2 = int((x * 0x2545F4914F6CDD1D) % uint64(l2.ways))
		}
		if l2.flags[base2+v2]&flagDirty != 0 {
			vt := l2.tags[base2+v2]
			if !l3.markDirtyTag(l3.setFor(vt), vt) {
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

	// L1 fill; a dirty victim's writeback chases L2, then L3, then DRAM.
	var v1 int
	if fm := l1.free[si1]; fm != 0 {
		v1 = bits.TrailingZeros64(fm)
		l1.free[si1] = fm &^ (1 << uint(v1))
	} else {
		switch l1.cfg.Policy {
		case LRU:
			// Branchless min-scan; see the L2 fill above.
			st := l1.stamp[base1 : base1+l1.ways]
			best, bestStamp := 0, st[0]
			for w := 1; w < len(st); w++ {
				s := st[w]
				lt := int64(s-bestStamp) >> 63
				best += int(lt) & (w - best)
				bestStamp += uint64(lt) & (s - bestStamp)
			}
			v1 = best
		case PseudoLRU:
			v1 = l1.plruVictim(si1)
		case Nehalem:
			v1 = l1.nehalemVictim(si1)
		case Random:
			x := l1.rngState
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			l1.rngState = x
			v1 = int((x * 0x2545F4914F6CDD1D) % uint64(l1.ways))
		}
		if l1.flags[base1+v1]&flagDirty != 0 {
			vt := l1.tags[base1+v1]
			if !l2.markDirtyTag(l2.setFor(vt), vt) {
				if !l3.markDirtyTag(l3.setFor(vt), vt) {
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

// fillL1At installs the line into L1 at the probe-computed set base and
// chases a dirty victim's writeback through L2, then L3, then memory —
// Hierarchy.fillL1 on replica state. It returns the DRAM writeback as an
// outcome delta (zero or one write line) rather than mutating the
// caller's outcome: keeping AccessPacked free of address-taken locals
// lets its outcome live in a register.
func fillL1At(l1, l2, l3 *Cache, si1 uint64, base1 int, tag uint64, write bool) PackedOutcome {
	if vt, wb := l1.fillPrivateAt(si1, base1, tag, write); wb {
		if !l2.markDirtyTag(l2.setFor(vt), vt) {
			if !l3.markDirtyTag(l3.setFor(vt), vt) {
				return packWriteLine
			}
		}
	}
	return 0
}

// trainPrefetcher mirrors Hierarchy.trainPrefetcher for replica k: the
// demand line feeds the replica's prefetcher, and proposals fill the
// replica's L3 (a resident proposal is a no-op, exactly as in Fill).
// The side effects are returned as an outcome delta — prefetch fills
// and the writebacks their evictions caused — so the caller's outcome
// stays register resident.
func (f *FusedHierarchy) trainPrefetcher(k int, tag uint64, miss bool) PackedOutcome {
	var d PackedOutcome
	l3 := &f.l3.reps[k]
	for _, pl := range f.pf[k].Observe(tag, miss) {
		r := l3.fillTag(l3.setFor(pl), pl, 0, true, false)
		if r.Hit {
			continue // already resident; nothing was disturbed
		}
		d += packPrefetch + f.backInvalidate(k, r.Evicted)
	}
	return d
}

// backInvalidate removes an evicted L3 victim from replica k's private
// caches (inclusive L3), returning the DRAM writeback the eviction
// causes (zero or one write line). Replicas are single-owner, so only
// the single-owner arm of Hierarchy.backInvalidate is mirrored.
func (f *FusedHierarchy) backInvalidate(k int, ev Evicted) PackedOutcome {
	if !ev.Valid {
		return 0
	}
	dirty := ev.Dirty
	tag := uint64(ev.LineAddr) >> f.lineShift
	l1 := &f.l1.reps[k]
	l2 := &f.l2.reps[k]
	if d, ok := l1.invalidatePrivate(l1.setFor(tag), tag); ok && d {
		dirty = true
	}
	if d, ok := l2.invalidatePrivate(l2.setFor(tag), tag); ok && d {
		dirty = true
	}
	if dirty {
		return packWriteLine
	}
	return 0
}
