package cache

import (
	"testing"
	"testing/quick"

	"cachepirate/internal/stats"
)

func smallCfg(ways int, policy PolicyKind) Config {
	return Config{
		Name:     "test",
		Size:     int64(ways) * 64 * 4, // 4 sets
		Ways:     ways,
		LineSize: 64,
		Policy:   policy,
		Owners:   2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg(4, LRU)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "line", Size: 1024, Ways: 4, LineSize: 48, Owners: 1},
		{Name: "div", Size: 1000, Ways: 4, LineSize: 64, Owners: 1},
		{Name: "plru", Size: 64 * 3 * 4, Ways: 3, LineSize: 64, Policy: PseudoLRU, Owners: 1},
		{Name: "owners", Size: 1024, Ways: 4, LineSize: 64, Owners: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should be invalid", c.Name)
		}
	}
}

func TestPolicyKindString(t *testing.T) {
	cases := []struct {
		p    PolicyKind
		want string
	}{{LRU, "lru"}, {PseudoLRU, "plru"}, {Nehalem, "nehalem"}, {Random, "random"}}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int(c.p), got, c.want)
		}
	}
}

func TestSets(t *testing.T) {
	c := Config{Size: 8 << 20, Ways: 16, LineSize: 64}
	if got := c.Sets(); got != 8192 {
		t.Errorf("8MB/16way/64B should have 8192 sets, got %d", got)
	}
}

func TestAccessMissThenFillThenHit(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	a := Addr(0x1000)
	if r := c.Access(a, false, 0); r.Hit {
		t.Fatal("access to empty cache hit")
	}
	c.Fill(a, 0, false, false)
	if r := c.Access(a, false, 0); !r.Hit {
		t.Fatal("access after fill missed")
	}
	st := c.Stats(0)
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v, want 2 accesses / 1 hit / 1 miss / 1 fill", st)
	}
}

func TestSameSetDifferentTagsConflict(t *testing.T) {
	cfg := smallCfg(2, LRU) // 2 ways, 4 sets
	c := MustNew(cfg)
	setStride := Addr(cfg.LineSize * cfg.Sets())
	// Three lines mapping to set 0 in a 2-way cache must evict one.
	a0, a1, a2 := Addr(0), setStride, 2*setStride
	c.Fill(a0, 0, false, false)
	c.Fill(a1, 0, false, false)
	r := c.Fill(a2, 0, false, false)
	if !r.Evicted.Valid {
		t.Fatal("third fill into 2-way set did not evict")
	}
	if r.Evicted.LineAddr != a0 {
		t.Errorf("LRU evicted %#x, want %#x", r.Evicted.LineAddr, a0)
	}
}

func TestLRUVictimOrder(t *testing.T) {
	cfg := smallCfg(4, LRU)
	c := MustNew(cfg)
	setStride := Addr(cfg.LineSize * cfg.Sets())
	addrs := []Addr{0, setStride, 2 * setStride, 3 * setStride}
	for _, a := range addrs {
		c.Fill(a, 0, false, false)
	}
	// Touch a0 to make a1 the LRU.
	c.Access(addrs[0], false, 0)
	r := c.Fill(4*setStride, 0, false, false)
	if r.Evicted.LineAddr != addrs[1] {
		t.Errorf("evicted %#x, want %#x (LRU after touch)", r.Evicted.LineAddr, addrs[1])
	}
}

func TestWriteMakesDirtyAndWritebackCounted(t *testing.T) {
	cfg := smallCfg(1, LRU) // direct-mapped, 4 sets
	c := MustNew(cfg)
	setStride := Addr(cfg.LineSize * cfg.Sets())
	c.Fill(0, 0, false, false)
	c.Access(0, true, 0) // dirty it
	r := c.Fill(setStride, 0, false, false)
	if !r.Evicted.Valid || !r.Evicted.Dirty {
		t.Fatalf("dirty line not reported on eviction: %+v", r.Evicted)
	}
	if c.Stats(0).Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats(0).Writebacks)
	}
}

func TestFillDirtyFlag(t *testing.T) {
	cfg := smallCfg(1, LRU)
	c := MustNew(cfg)
	setStride := Addr(cfg.LineSize * cfg.Sets())
	c.Fill(0, 0, false, true) // write-allocate fill
	r := c.Fill(setStride, 0, false, false)
	if !r.Evicted.Dirty {
		t.Error("write-allocate fill should produce a dirty line")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	c.Fill(0x40, 0, false, false)
	before := c.Stats(0)
	if !c.Probe(0x40) {
		t.Fatal("probe missed resident line")
	}
	if c.Probe(0x4000000) {
		t.Fatal("probe hit absent line")
	}
	if c.Stats(0) != before {
		t.Error("probe changed statistics")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	c.Fill(0x80, 1, false, false)
	c.Access(0x80, true, 1)
	ev, ok := c.Invalidate(0x80)
	if !ok || !ev.Dirty || ev.Owner != 1 || ev.LineAddr != 0x80 {
		t.Fatalf("invalidate returned %+v ok=%v", ev, ok)
	}
	if c.Probe(0x80) {
		t.Error("line still resident after invalidate")
	}
	if _, ok := c.Invalidate(0x80); ok {
		t.Error("second invalidate reported a line")
	}
}

func TestMarkDirty(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	c.Fill(0xC0, 0, false, false)
	if !c.MarkDirty(0xC0) {
		t.Fatal("MarkDirty missed resident line")
	}
	if c.MarkDirty(0xBEEF000) {
		t.Fatal("MarkDirty hit absent line")
	}
	ev, _ := c.Invalidate(0xC0)
	if !ev.Dirty {
		t.Error("line not dirty after MarkDirty")
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	for i := 0; i < 16; i++ {
		c.Fill(Addr(i*64), 0, false, false)
	}
	c.Flush()
	for i := 0; i < 16; i++ {
		if c.Probe(Addr(i * 64)) {
			t.Fatalf("line %d survived flush", i)
		}
	}
	if c.Stats(0).Fills != 16 {
		t.Error("flush should keep statistics")
	}
}

func TestResidentLinesPerOwner(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	for i := 0; i < 4; i++ {
		c.Fill(Addr(i*64), 0, false, false)
	}
	for i := 4; i < 6; i++ {
		c.Fill(Addr(i*64), 1, false, false)
	}
	if got := c.ResidentLines(0); got != 4 {
		t.Errorf("owner 0 resident = %d, want 4", got)
	}
	if got := c.ResidentBytes(1); got != 2*64 {
		t.Errorf("owner 1 resident bytes = %d, want 128", got)
	}
}

// TestResidentFits pins the footprint test geometrically: a candidate
// fits when no one of its sets — indexed by mask or by modulo, as its
// set count demands — is asked to seat more than Ways of the resident
// lines, whatever the shape of the cache that holds them now.
func TestResidentFits(t *testing.T) {
	geom := func(sets, ways int) Config {
		return Config{Name: "g", Size: int64(sets*ways) * 64, Ways: ways, LineSize: 64, Policy: LRU, Owners: 1}
	}
	for _, tc := range []struct {
		name  string
		probe Config
		lines []int // line numbers filled into the probe
		cand  Config
		want  bool
	}{
		{"empty cache fits the smallest geometry", geom(16, 8), nil, geom(1, 1), true},
		{"a set holding exactly Ways lines", geom(16, 8), []int{0, 4, 8, 12}, geom(4, 4), true},
		{"a set asked for Ways+1 lines", geom(16, 8), []int{0, 4, 8, 12, 16}, geom(4, 4), false},
		{"Ways+1 lines, one more way", geom(16, 8), []int{0, 4, 8, 12, 16}, geom(4, 5), true},
		{"Ways+1 lines, twice the sets", geom(16, 8), []int{0, 4, 8, 12, 16}, geom(8, 4), true},
		{"multiples of 3 collide under a modulo index", geom(16, 8), []int{0, 3, 6, 9}, geom(3, 3), false},
		{"multiples of 3 spread under a mask index", geom(16, 8), []int{0, 3, 6, 9}, geom(4, 1), true},
		{"multiples of 4 collide under a mask index", geom(16, 8), []int{0, 4, 8}, geom(4, 2), false},
		{"multiples of 4 spread under a modulo index", geom(16, 8), []int{0, 4, 8}, geom(3, 1), true},
		{"more sets than the probe, lines spread", geom(4, 4), []int{0, 4, 8, 12}, geom(16, 1), true},
		{"more sets than the probe, lines collide", geom(4, 4), []int{0, 4, 8, 12}, geom(8, 1), false},
		{"the probe's own geometry", geom(4, 4), []int{0, 4, 8, 12, 1, 5}, geom(4, 4), true},
	} {
		c := MustNew(tc.probe)
		for _, l := range tc.lines {
			c.Fill(Addr(l*64), 0, false, false)
		}
		if ev := c.Stats(0).Evictions; ev != 0 {
			t.Fatalf("%s: the probe evicted %d lines; the case is mis-built", tc.name, ev)
		}
		if got := c.ResidentFits(tc.cand); got != tc.want {
			t.Errorf("%s: ResidentFits(%d sets x %d ways) = %v, want %v", tc.name, tc.cand.Sets(), tc.cand.Ways, got, tc.want)
		}
	}

	// Only lines resident now count, and tags of another line size mean
	// nothing to the candidate.
	c := MustNew(geom(16, 8))
	for _, l := range []int{0, 4, 8, 12, 16} {
		c.Fill(Addr(l*64), 0, false, false)
	}
	c.Invalidate(Addr(8 * 64))
	if !c.ResidentFits(geom(4, 4)) {
		t.Error("an invalidated line still counts against the candidate's set")
	}
	wide := geom(16, 8)
	wide.LineSize, wide.Size = 128, wide.Size*2
	if c.ResidentFits(wide) {
		t.Error("a candidate with another line size fits")
	}
}

func TestPrefetchFillAccounting(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	c.Fill(0x100, 0, true, false) // prefetch fill
	st := c.Stats(0)
	if st.Fills != 1 || st.PrefetchFills != 1 {
		t.Fatalf("fills=%d prefetchFills=%d, want 1/1", st.Fills, st.PrefetchFills)
	}
	r := c.Access(0x100, false, 0)
	if !r.Hit || !r.WasPrefetch {
		t.Fatalf("first demand access on prefetched line: %+v", r)
	}
	if c.Stats(0).PrefetchHits != 1 {
		t.Error("prefetch hit not counted")
	}
	// Second access is an ordinary hit.
	if r := c.Access(0x100, false, 0); r.WasPrefetch {
		t.Error("second access still flagged as prefetch hit")
	}
}

func TestFillAlreadyResident(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	c.Fill(0x40, 0, false, false)
	r := c.Fill(0x40, 0, false, false)
	if !r.Hit || r.Evicted.Valid {
		t.Fatalf("refill of resident line should hit without eviction: %+v", r)
	}
	if c.Stats(0).Fills != 1 {
		t.Errorf("refill double-counted: fills=%d", c.Stats(0).Fills)
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := OwnerStats{Accesses: 10, Hits: 7, Misses: 3, Fills: 4, Writes: 2}
	b := OwnerStats{Accesses: 4, Hits: 3, Misses: 1, Fills: 1, Writes: 1}
	d := a.Sub(b)
	if d.Accesses != 6 || d.Hits != 4 || d.Misses != 2 || d.Fills != 3 || d.Writes != 1 {
		t.Errorf("Sub wrong: %+v", d)
	}
	s := b.Add(d)
	if s != a {
		t.Errorf("Add(Sub) not identity: %+v != %+v", s, a)
	}
}

func TestRatios(t *testing.T) {
	s := OwnerStats{Accesses: 200, Misses: 10, Fills: 30}
	if got := s.MissRatio(); got != 0.05 {
		t.Errorf("MissRatio = %g, want 0.05", got)
	}
	if got := s.FetchRatio(); got != 0.15 {
		t.Errorf("FetchRatio = %g, want 0.15", got)
	}
	var z OwnerStats
	if z.MissRatio() != 0 || z.FetchRatio() != 0 {
		t.Error("idle ratios should be 0")
	}
}

// TestHitsPlusMissesEqualsAccesses is the basic conservation invariant,
// checked under random traffic for every policy.
func TestHitsPlusMissesEqualsAccesses(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, PseudoLRU, Nehalem, Random} {
		c := MustNew(smallCfg(4, pol))
		rng := stats.NewRNG(uint64(pol) + 1)
		for i := 0; i < 20000; i++ {
			a := Addr(rng.Uint64n(64) * 64)
			r := c.Access(a, rng.Float64() < 0.3, 0)
			if !r.Hit {
				c.Fill(a, 0, false, false)
			}
		}
		st := c.Stats(0)
		if st.Hits+st.Misses != st.Accesses {
			t.Errorf("%v: hits(%d)+misses(%d) != accesses(%d)", pol, st.Hits, st.Misses, st.Accesses)
		}
		if st.Fills != st.Misses {
			t.Errorf("%v: demand-only fills(%d) != misses(%d)", pol, st.Fills, st.Misses)
		}
	}
}

// TestLRUStackProperty: for LRU, miss count is non-increasing in
// associativity (inclusion property) on an identical trace.
func TestLRUStackProperty(t *testing.T) {
	trace := make([]Addr, 30000)
	rng := stats.NewRNG(7)
	for i := range trace {
		trace[i] = Addr(rng.Uint64n(96) * 64)
	}
	missesAt := func(ways int) uint64 {
		cfg := Config{Size: int64(ways) * 64 * 4, Ways: ways, LineSize: 64, Policy: LRU, Owners: 1}
		c := MustNew(cfg)
		for _, a := range trace {
			if !c.Access(a, false, 0).Hit {
				c.Fill(a, 0, false, false)
			}
		}
		return c.Stats(0).Misses
	}
	prev := missesAt(1)
	for ways := 2; ways <= 16; ways *= 2 {
		m := missesAt(ways)
		if m > prev {
			t.Errorf("misses increased with associativity: %d ways %d > %d", ways, m, prev)
		}
		prev = m
	}
}

// lruSim is a tiny reference model of one LRU set, used to cross-check
// the cache implementation and to state the Fig. 3 property.
type lruSim struct {
	order []uint64 // MRU first
	ways  int
}

func (s *lruSim) access(tag uint64) bool {
	for i, t := range s.order {
		if t == tag {
			copy(s.order[1:i+1], s.order[:i])
			s.order[0] = tag
			return true
		}
	}
	if len(s.order) == s.ways {
		s.order = s.order[:len(s.order)-1]
	}
	s.order = append([]uint64{tag}, s.order...)
	return false
}

// TestFig3_WayStealingEquivalence reproduces the paper's Figure 3
// argument: a Target sharing an A-way LRU set with a Pirate that holds
// k ways sees exactly the hit/miss behaviour of an (A-k)-way set, for
// arbitrary Target access sequences.
func TestFig3_WayStealingEquivalence(t *testing.T) {
	const ways, stolen = 4, 1
	f := func(seq []uint8) bool {
		// Shared cache: 1 set of `ways` ways, pirate touches its own
		// line after every target access at the highest possible rate
		// (that is the Pirate's design: always re-touch the oldest
		// line so its stamp stays newest).
		shared := MustNew(Config{Size: 64 * ways, Ways: ways, LineSize: 64, Policy: LRU, Owners: 2})
		// Reference: 1 set with ways-stolen ways.
		ref := &lruSim{ways: ways - stolen}

		// Pirate line (tag chosen outside the target's tag space).
		pirateAddr := Addr(1 << 30)
		shared.Fill(pirateAddr, 1, false, false)

		for _, v := range seq {
			tag := uint64(v % 8)    // small tag space to force conflicts
			a := Addr(tag * 64 * 1) // all map to set 0 (1 set)
			refHit := ref.access(tag)
			r := shared.Access(a, false, 0)
			if !r.Hit {
				shared.Fill(a, 0, false, false)
			}
			// Pirate re-touches its line immediately.
			if !shared.Access(pirateAddr, false, 1).Hit {
				// Pirate lost its line: property would not apply.
				return false
			}
			if r.Hit != refHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFig3_TwoWaysStolen extends the equivalence to stealing two ways.
func TestFig3_TwoWaysStolen(t *testing.T) {
	const ways, stolen = 4, 2
	shared := MustNew(Config{Size: 64 * ways, Ways: ways, LineSize: 64, Policy: LRU, Owners: 2})
	ref := &lruSim{ways: ways - stolen}
	p0, p1 := Addr(1<<30), Addr(1<<30+64*1024) // distinct pirate tags... same set
	// Both pirate lines map to set 0 because there is only one set.
	shared.Fill(p0, 1, false, false)
	shared.Fill(p1, 1, false, false)
	rng := stats.NewRNG(3)
	for i := 0; i < 5000; i++ {
		tag := rng.Uint64n(6)
		a := Addr(tag * 64)
		refHit := ref.access(tag)
		r := shared.Access(a, false, 0)
		if !r.Hit {
			shared.Fill(a, 0, false, false)
		}
		// Pirate touches both its lines (oldest first).
		shared.Access(p0, false, 1)
		shared.Access(p1, false, 1)
		if r.Hit != refHit {
			t.Fatalf("step %d: shared hit=%v ref hit=%v", i, r.Hit, refHit)
		}
	}
	if shared.Stats(1).Misses != 0 {
		t.Errorf("pirate missed %d times; should retain both ways", shared.Stats(1).Misses)
	}
}

func TestNehalemPolicyBasics(t *testing.T) {
	// 4-way, 1 set. Fill A B C D, then E must evict the first line
	// whose accessed bit is clear. After D's fill set all bits; the
	// policy clears all but D's, so E evicts way 0 (A).
	c := MustNew(Config{Size: 64 * 4, Ways: 4, LineSize: 64, Policy: Nehalem, Owners: 1})
	addrs := []Addr{0, 64, 128, 192}
	for _, a := range addrs {
		c.Fill(a, 0, false, false)
	}
	r := c.Fill(256, 0, false, false)
	if !r.Evicted.Valid || r.Evicted.LineAddr != 0 {
		t.Fatalf("nehalem evicted %+v, want line 0x0", r.Evicted)
	}
	// D (way 3) must still be resident: its bit survived the clear.
	if !c.Probe(192) {
		t.Error("most recently filled line was evicted")
	}
}

// TestNehalemRetainsUnderSequentialThrash shows the accessed-bit policy
// retaining some lines on a cyclic over-capacity scan where true LRU
// retains none — the Fig. 4(b)/(c) divergence.
func TestNehalemRetainsUnderSequentialThrash(t *testing.T) {
	run := func(pol PolicyKind) uint64 {
		c := MustNew(Config{Size: 64 * 4, Ways: 4, LineSize: 64, Policy: pol, Owners: 1})
		for pass := 0; pass < 50; pass++ {
			for tag := 0; tag < 5; tag++ { // 5 lines into 4 ways
				a := Addr(tag * 64)
				if !c.Access(a, false, 0).Hit {
					c.Fill(a, 0, false, false)
				}
			}
		}
		return c.Stats(0).Hits
	}
	lruHits := run(LRU)
	nehalemHits := run(Nehalem)
	if lruHits != 0 {
		t.Errorf("LRU should thrash to 0 hits, got %d", lruHits)
	}
	if nehalemHits == 0 {
		t.Error("Nehalem accessed-bit policy should retain some lines on cyclic scans")
	}
}

func TestPLRUFullSetCycles(t *testing.T) {
	// PLRU over 4 ways: filling 4 lines then accessing them round-robin
	// must produce no misses; adding a 5th line evicts exactly one.
	c := MustNew(Config{Size: 64 * 4, Ways: 4, LineSize: 64, Policy: PseudoLRU, Owners: 1})
	for i := 0; i < 4; i++ {
		c.Fill(Addr(i*64), 0, false, false)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 4; i++ {
			if !c.Access(Addr(i*64), false, 0).Hit {
				t.Fatalf("resident line %d missed under PLRU", i)
			}
		}
	}
	r := c.Fill(Addr(4*64), 0, false, false)
	if !r.Evicted.Valid {
		t.Fatal("fifth line did not evict")
	}
}

func TestPLRUVictimIsNotMRU(t *testing.T) {
	c := MustNew(Config{Size: 64 * 8, Ways: 8, LineSize: 64, Policy: PseudoLRU, Owners: 1})
	for i := 0; i < 8; i++ {
		c.Fill(Addr(i*64), 0, false, false)
	}
	// Touch line 3 last; PLRU must not evict it next.
	c.Access(Addr(3*64), false, 0)
	r := c.Fill(Addr(9*64), 0, false, false)
	if r.Evicted.LineAddr == Addr(3*64) {
		t.Error("PLRU evicted the most recently used line")
	}
}

func TestRandomPolicyIsDeterministicPerInstance(t *testing.T) {
	run := func() []Addr {
		c := MustNew(Config{Size: 64 * 4, Ways: 4, LineSize: 64, Policy: Random, Owners: 1})
		var evs []Addr
		for i := 0; i < 64; i++ {
			r := c.Fill(Addr(i*64*4), 0, false, false) // all set 0? no: 1 set anyway
			if r.Evicted.Valid {
				evs = append(evs, r.Evicted.LineAddr)
			}
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different eviction counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random policy diverged between identical runs at %d", i)
		}
	}
}

// TestOwnersIsolatedStats checks that per-owner accounting does not
// bleed between owners.
func TestOwnersIsolatedStats(t *testing.T) {
	c := MustNew(smallCfg(4, LRU))
	c.Access(0, false, 0)
	c.Fill(0, 0, false, false)
	c.Access(64, false, 1)
	c.Fill(64, 1, false, false)
	c.Access(0, false, 0)
	s0, s1 := c.Stats(0), c.Stats(1)
	if s0.Accesses != 2 || s1.Accesses != 1 {
		t.Errorf("owner accesses = %d/%d, want 2/1", s0.Accesses, s1.Accesses)
	}
	tot := c.TotalStats()
	if tot.Accesses != 3 {
		t.Errorf("total accesses = %d, want 3", tot.Accesses)
	}
	c.ResetStats()
	if c.Stats(0).Accesses != 0 || c.Stats(1).Accesses != 0 {
		t.Error("ResetStats did not zero counters")
	}
}
