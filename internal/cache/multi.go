package cache

import (
	"fmt"
	"math/bits"

	"cachepirate/internal/prefetch"
)

// Replicas is a family of caches evaluated in lockstep by the fused
// multi-size sweep: one Cache per size under test, with every dense
// line-state array (tags, flags, owners, stamps, per-set metadata)
// carved out of a single contiguous backing block. The block is laid
// out set-major: consecutive replicas with one set count form a band,
// and set s of every replica in a band is one contiguous run — a
// [band][set][replica][way] extension of the single-cache SoA layout,
// with the meta and free words [band][set][replica]. The fused walk
// feeds one record to every replica before the next record, so it
// sweeps forward through one run per level instead of probing one
// scattered set per replica. Replicas of equal geometry (the private
// levels) and way-shrunk L3s form one band; set-shrunk L3s differ in
// set count, so each is a band of one, which is the plain per-cache
// layout. Each replica is bit-identical to a freshly New()ed cache of
// the same config: the fused engine's results must match the per-size
// path exactly, and sharing init with New is what makes that hold from
// the first access.
type Replicas struct {
	reps []Cache
}

// lineStore is the backing block a Replicas family is carved from: one
// array per Cache line-state field, indexed by line or by set. stamp
// holds the lines of the LRU replicas only.
type lineStore struct {
	tags  []uint64
	flags []uint8
	owner []uint8
	stamp []uint64
	meta  []uint64
	free  []uint64
}

// grow makes the store hold at least lines line slots, stamps stamp
// slots and sets set slots: an array too small is replaced by one of
// exactly the size asked, its contents dropped; the others are kept.
func (s *lineStore) grow(lines, stamps, sets int) {
	if len(s.tags) < lines {
		s.tags = make([]uint64, lines)
		s.flags = make([]uint8, lines)
		s.owner = make([]uint8, lines)
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

// band is a run of consecutive replica configs with one set count: the
// unit the set-major layout interleaves.
type band struct {
	cfgs   []Config
	nsets  int
	stride int  // the band's summed ways: line slots per set
	lru    bool // some replica keeps LRU stamps
}

// bands splits cfgs into maximal runs of equal set count.
func bands(cfgs []Config) []band {
	var bs []band
	for lo := 0; lo < len(cfgs); {
		b := band{nsets: int(cfgs[lo].Sets())}
		hi := lo
		for ; hi < len(cfgs) && int(cfgs[hi].Sets()) == b.nsets; hi++ {
			b.stride += cfgs[hi].Ways
			b.lru = b.lru || cfgs[hi].Policy == LRU
		}
		b.cfgs = cfgs[lo:hi]
		bs = append(bs, b)
		lo = hi
	}
	return bs
}

// slots returns how many line slots, stamp slots and set slots the band
// occupies in a lineStore. Stamps cover the whole band when any of its
// replicas is LRU (a sweep's replicas share one policy).
func (b band) slots() (lines, stamps, sets int) {
	lines = b.nsets * b.stride
	if b.lru {
		stamps = lines
	}
	return lines, stamps, b.nsets * len(b.cfgs)
}

// newReplicas builds one cache per config over the shared contiguous
// backing arrays of s, which a later family may reuse once this one is
// dead. All configs must agree on line size (the fused engine decodes
// each address once and fans the line tag out to every replica).
//
// Within a band of R replicas with S summed ways, replica j's slices
// start at its own part of set 0 — line slot W_j (the ways of the
// replicas before it), meta word j — and every set index is one stride
// further: lines at si*S, meta at si*R. Each slice runs to the end of
// the replica's last set, so it spans the parts of the others between;
// every Cache method reaches lines only at its own sets' bases.
func newReplicas(cfgs []Config, s *lineStore) (*Replicas, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: replicas need at least one config")
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.LineSize != cfgs[0].LineSize {
			return nil, fmt.Errorf("cache: replica %d line size %d != %d", i, cfg.LineSize, cfgs[0].LineSize)
		}
	}
	bs := bands(cfgs)
	lines, stamps, sets := 0, 0, 0
	for _, b := range bs {
		nl, nt, ns := b.slots()
		lines += nl
		stamps += nt
		sets += ns
	}
	s.fit(lines, stamps, sets)
	r := &Replicas{reps: make([]Cache, len(cfgs))}
	k, lo, to, so := 0, 0, 0, 0
	for _, b := range bs {
		group := len(b.cfgs)
		way := 0
		for j, cfg := range b.cfgs {
			l, m := lo+way, so+j
			ln := (b.nsets-1)*b.stride + cfg.Ways
			ms := (b.nsets-1)*group + 1
			var stamp []uint64
			if cfg.Policy == LRU {
				t := to + way
				stamp = s.stamp[t : t+ln : t+ln]
			}
			r.reps[k].init(cfg, b.stride, uint64(group),
				s.tags[l:l+ln:l+ln], s.flags[l:l+ln:l+ln], s.owner[l:l+ln:l+ln],
				stamp, s.meta[m:m+ms:m+ms], s.free[m:m+ms:m+ms])
			way += cfg.Ways
			k++
		}
		nl, nt, ns := b.slots()
		lo += nl
		to += nt
		so += ns
	}
	return r, nil
}

// Rep returns replica k; the full Cache API applies to it.
func (r *Replicas) Rep(k int) *Cache { return &r.reps[k] }

// FusedHierarchy advances one single-core cache hierarchy per L3
// geometry under the same demand stream: per-replica private L1/L2,
// per-replica L3, and per-replica prefetcher, each level held in one
// set-major Replicas block. Back-invalidations from a shrunk L3 differ
// by size, so the private levels (and therefore the prefetcher training
// streams) genuinely diverge across replicas and must all be
// replicated; what is shared is the trace iteration and the address
// decode — the line tag and the L1 and L2 set positions, which Line
// computes once per record for every replica. Replicas may differ in
// L3 ways and in L3 sets alike — the L3 set index is derived per replica
// from the shared line tag — so both sweep geometries fuse.
//
// Access(k, addr, write) is step-for-step the same state evolution and
// Outcome computation as Hierarchy.Access on a 1-core hierarchy with
// replica k's L3 — the equivalence the fused sweep's bit-identical
// guarantee rests on (see conformance.CheckSweepEquivalence).
type FusedHierarchy struct {
	l1, l2, l3 *Replicas
	// p1 and p2 are replica 0's private levels. Every replica shares
	// their geometry and their set-major layout, so Line indexes every
	// replica's private sets through them.
	p1, p2 *Cache
	pf     []prefetch.Prefetcher

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
	f.p1, f.p2 = f.l1.Rep(0), f.l2.Rep(0)
	for k := range f.pf {
		if cfg.NewPrefetcher != nil {
			f.pf[k] = cfg.NewPrefetcher()
		} else {
			f.pf[k] = prefetch.None{}
		}
	}
	return f, nil
}

// L3 returns replica k's last-level cache (counter reads, assertions).
func (f *FusedHierarchy) L3(k int) *Cache { return f.l3.Rep(k) }

// FusedLine is one access decoded for every replica of a
// FusedHierarchy: the line tag, and the meta index and line base of its
// L1 set and of its L2 set. Every replica shares the private geometry,
// and the private levels are one band each, so these are the same
// numbers for every replica; each replica's slices start at its own
// part of the set.
type FusedLine struct {
	tag          uint64
	mi1, mi2     uint64
	base1, base2 int
}

// Line decodes addr for every replica.
func (f *FusedHierarchy) Line(addr Addr) FusedLine {
	tag := uint64(addr) >> f.lineShift
	si1, si2 := f.p1.setFor(tag), f.p2.setFor(tag)
	return FusedLine{
		tag: tag,
		mi1: si1 * f.p1.group, base1: int(si1) * f.p1.stride,
		mi2: si2 * f.p2.group, base2: int(si2) * f.p2.stride,
	}
}

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
	return f.AccessPacked(k, f.Line(addr), write).Outcome(f.lineSize)
}

// AccessPacked performs one demand access of the decoded line ln on
// hierarchy replica k and returns its outcome as one word. The private
// levels take their set positions from ln; the L3's is one mask (or
// modulo) off the tag, per replica, since set-shrunk L3s differ in set
// count.
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
// step-for-step the corresponding Cache method (demand, AccessFill,
// fillWay, Invalidate); conformance.CheckSweepEquivalence pins the
// equivalence against per-size machines.
//
//lint:hotpath
func (f *FusedHierarchy) AccessPacked(k int, ln FusedLine, write bool) PackedOutcome {
	l1 := &f.l1.reps[k]
	tag := ln.tag

	// L1 demand probe: demand()'s state evolution, stats elided. The
	// replacement touches here and below open-code touch()'s policy
	// dispatch: the switch itself is over the inlining budget though
	// every leaf is under it (costs at fillPrivateAt), so calling touch
	// costs a real call per level per record, while the dispatch written
	// at the call site inlines its per-policy leaves.
	mi1, base1 := ln.mi1, ln.base1
	if w := l1.findWay(base1, tag); w >= 0 {
		if write {
			l1.flags[base1+w] |= flagDirty
		}
		switch l1.cfg.Policy {
		case LRU:
			l1.clock++
			l1.stamp[base1+w] = l1.clock
		case PseudoLRU:
			l1.plruTouch(mi1, w)
		case Nehalem:
			l1.nehalemTouch(mi1, w)
		}
		return PackedL1Hit
	}

	// L2 demand probe.
	l2 := &f.l2.reps[k]
	l3 := &f.l3.reps[k]
	mi2, base2 := ln.mi2, ln.base2
	if w := l2.findWay(base2, tag); w >= 0 {
		if write {
			l2.flags[base2+w] |= flagDirty
		}
		switch l2.cfg.Policy {
		case LRU:
			l2.clock++
			l2.stamp[base2+w] = l2.clock
		case PseudoLRU:
			l2.plruTouch(mi2, w)
		case Nehalem:
			l2.nehalemTouch(mi2, w)
		}
		return PackedL2Hit + fillL1At(l1, l2, l3, mi1, base1, tag, write)
	}

	// The access reaches this replica's L3 — one port use, which the
	// served level (L3 or memory) implies — and the replica's prefetcher
	// observes the demand line stream here. This is AccessFill
	// specialised to the single owner: the stats pointer is hoisted once
	// and the owner array (always zero in a replica) is neither read nor
	// written.
	var out PackedOutcome
	mi3, base3 := l3.locate(tag)
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
			l3.plruTouch(mi3, w3)
		case Nehalem:
			l3.nehalemTouch(mi3, w3)
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
		if fm := l3.free[mi3]; fm != 0 {
			victim = bits.TrailingZeros64(fm)
			l3.free[mi3] = fm &^ (1 << uint(victim))
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
				victim = l3.plruVictim(mi3)
			case Nehalem:
				victim = l3.nehalemVictim(mi3)
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
			vm1, vb1 := l1.locate(vt)
			if d, _ := l1.invalidatePrivate(vm1, vb1, vt); d {
				vDirty = true
			}
			vm2, vb2 := l2.locate(vt)
			if d, _ := l2.invalidatePrivate(vm2, vb2, vt); d {
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
			l3.plruTouch(mi3, victim)
		case Nehalem:
			l3.nehalemTouch(mi3, victim)
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
	if fm := l2.free[mi2]; fm != 0 {
		v2 = bits.TrailingZeros64(fm)
		l2.free[mi2] = fm &^ (1 << uint(v2))
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
			v2 = l2.plruVictim(mi2)
		case Nehalem:
			v2 = l2.nehalemVictim(mi2)
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
			if _, b := l3.locate(vt); !l3.markDirtyTag(b, vt) {
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
		l2.plruTouch(mi2, v2)
	case Nehalem:
		l2.nehalemTouch(mi2, v2)
	}

	// L1 fill; a dirty victim's writeback chases L2, then L3, then DRAM.
	var v1 int
	if fm := l1.free[mi1]; fm != 0 {
		v1 = bits.TrailingZeros64(fm)
		l1.free[mi1] = fm &^ (1 << uint(v1))
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
			v1 = l1.plruVictim(mi1)
		case Nehalem:
			v1 = l1.nehalemVictim(mi1)
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
			if _, b := l2.locate(vt); !l2.markDirtyTag(b, vt) {
				if _, b := l3.locate(vt); !l3.markDirtyTag(b, vt) {
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
		l1.plruTouch(mi1, v1)
	case Nehalem:
		l1.nehalemTouch(mi1, v1)
	}
	return out
}

// fillL1At installs the line into L1 at the probe-computed set position
// and chases a dirty victim's writeback through L2, then L3, then
// memory — Hierarchy.fillL1 on replica state. It returns the DRAM
// writeback as an outcome delta (zero or one write line) rather than
// mutating the caller's outcome: keeping AccessPacked free of
// address-taken locals lets its outcome live in a register.
func fillL1At(l1, l2, l3 *Cache, mi1 uint64, base1 int, tag uint64, write bool) PackedOutcome {
	if vt, wb := l1.fillPrivateAt(mi1, base1, tag, write); wb {
		if _, b := l2.locate(vt); !l2.markDirtyTag(b, vt) {
			if _, b := l3.locate(vt); !l3.markDirtyTag(b, vt) {
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
		mi, base := l3.locate(pl)
		r := l3.fillTag(mi, base, pl, 0, true, false)
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
	mi1, b1 := l1.locate(tag)
	if d, _ := l1.invalidatePrivate(mi1, b1, tag); d {
		dirty = true
	}
	mi2, b2 := l2.locate(tag)
	if d, _ := l2.invalidatePrivate(mi2, b2, tag); d {
		dirty = true
	}
	if dirty {
		return packWriteLine
	}
	return 0
}
