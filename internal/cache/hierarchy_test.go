package cache

import (
	"testing"

	"cachepirate/internal/prefetch"
	"cachepirate/internal/stats"
)

// tinyHierarchy builds a small hierarchy for fast tests: 1KB/2-way L1,
// 4KB/4-way L2, 16KB/8-way shared L3.
func tinyHierarchy(cores int, l3policy PolicyKind, pf func() prefetch.Prefetcher) *Hierarchy {
	return MustNewHierarchy(HierarchyConfig{
		Cores:         cores,
		L1:            Config{Size: 1 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		L2:            Config{Size: 4 << 10, Ways: 4, LineSize: 64, Policy: LRU},
		L3:            Config{Size: 16 << 10, Ways: 8, LineSize: 64, Policy: l3policy},
		NewPrefetcher: pf,
	})
}

func TestHierarchyConfigValidate(t *testing.T) {
	bad := HierarchyConfig{
		Cores: 0,
		L1:    Config{Size: 1 << 10, Ways: 2, LineSize: 64},
		L2:    Config{Size: 4 << 10, Ways: 4, LineSize: 64},
		L3:    Config{Size: 16 << 10, Ways: 8, LineSize: 64},
	}
	if err := bad.Validate(); err == nil {
		t.Error("zero cores should be invalid")
	}
	// The L3 records each line's filling core in one byte.
	bad.Cores = MaxOwners
	if err := bad.Validate(); err != nil {
		t.Errorf("%d cores rejected: %v", bad.Cores, err)
	}
	bad.Cores = MaxOwners + 1
	if err := bad.Validate(); err == nil {
		t.Errorf("%d cores should be invalid", bad.Cores)
	}
	bad.Cores = 2
	bad.L2.LineSize = 128
	if err := bad.Validate(); err == nil {
		t.Error("mismatched line sizes should be invalid")
	}
}

// TestHierarchyHighestCore: the last core a one-byte owner can name
// fills L3 lines as itself, and the eviction of one of them
// back-invalidates that core's private copy and no other.
func TestHierarchyHighestCore(t *testing.T) {
	const top = MaxOwners - 1
	h := MustNewHierarchy(HierarchyConfig{
		Cores: MaxOwners,
		L1:    Config{Size: 2 * 64, Ways: 2, LineSize: 64, Policy: LRU},
		L2:    Config{Size: 4 * 64, Ways: 4, LineSize: 64, Policy: LRU},
		L3:    Config{Size: 8 * 64, Ways: 8, LineSize: 64, Policy: LRU},
	})
	h.Access(top, 0, true) // dirty in core top's L1
	for i := 1; i <= 8; i++ {
		h.Access(0, Addr(i*64), false)
	}
	if st := h.L3().Stats(top); st.Fills != 1 || st.Evictions != 1 {
		t.Errorf("core %d L3 counters %+v, want one fill and one eviction", top, st)
	}
	if _, ok := h.L1(top).Invalidate(0); ok {
		t.Errorf("core %d's L1 still holds the line its L3 copy lost", top)
	}
	if n := h.L3().ResidentLines(0); n != 8 {
		t.Errorf("core 0 holds %d L3 lines, want 8", n)
	}
}

func TestFirstAccessGoesToMemory(t *testing.T) {
	h := tinyHierarchy(1, LRU, nil)
	out := h.Access(0, 0x1000, false)
	if out.ServedBy != LevelMem {
		t.Fatalf("first access served by %v, want mem", out.ServedBy)
	}
	if out.MemReadBytes != 64 {
		t.Errorf("MemReadBytes = %d, want 64", out.MemReadBytes)
	}
	// Second access hits L1.
	out = h.Access(0, 0x1000, false)
	if out.ServedBy != LevelL1 {
		t.Errorf("second access served by %v, want L1", out.ServedBy)
	}
	// Same line, different byte: still L1.
	out = h.Access(0, 0x1030, false)
	if out.ServedBy != LevelL1 {
		t.Errorf("same-line access served by %v, want L1", out.ServedBy)
	}
}

func TestL2ServesAfterL1Eviction(t *testing.T) {
	h := tinyHierarchy(1, LRU, nil)
	// L1 is 1KB/2-way/64B = 8 sets. Touch 3 lines mapping to L1 set 0:
	// strides of 8*64 = 512 bytes.
	a0, a1, a2 := Addr(0), Addr(512), Addr(1024)
	h.Access(0, a0, false)
	h.Access(0, a1, false)
	h.Access(0, a2, false) // evicts a0 from L1; a0 still in L2
	out := h.Access(0, a0, false)
	if out.ServedBy != LevelL2 {
		t.Fatalf("a0 served by %v, want L2", out.ServedBy)
	}
}

func TestL3ServesAfterL2Eviction(t *testing.T) {
	h := tinyHierarchy(1, LRU, nil)
	// L2 is 4KB/4-way = 16 sets; lines 4KB apart share an L2 set.
	// 5 such lines overflow the L2 set but fit the L3 (16KB/8-way =
	// 32 sets; 4KB apart => sets 0, 0, ... L3 set stride is 32*64=2KB,
	// so 4KB-apart lines also share an L3 set — 8 ways hold them all).
	var addrs []Addr
	for i := 0; i < 5; i++ {
		addrs = append(addrs, Addr(i*4096))
	}
	for _, a := range addrs {
		h.Access(0, a, false)
	}
	out := h.Access(0, addrs[0], false)
	if out.ServedBy != LevelL3 {
		t.Fatalf("evicted-from-L2 line served by %v, want L3", out.ServedBy)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	h := tinyHierarchy(2, LRU, nil)
	// Core 0 loads a line; core 1 then floods the L3 set that holds it.
	target := Addr(0)
	h.Access(0, target, false)
	if !h.L1(0).Probe(target) || !h.L3().Probe(target) {
		t.Fatal("line not resident after access")
	}
	// L3: 16KB/8-way/64B = 32 sets; set stride = 2KB. Flood set 0 with
	// 8 fresh lines from core 1 to force target's eviction.
	for i := 1; i <= 8; i++ {
		h.Access(1, Addr(i*2048), false)
	}
	if h.L3().Probe(target) {
		t.Fatal("target line survived L3 flood; test needs more lines")
	}
	if h.L1(0).Probe(target) || h.L2(0).Probe(target) {
		t.Error("back-invalidation missed a private copy (inclusivity violated)")
	}
}

func TestDirtyBackInvalidationWritesToMemory(t *testing.T) {
	h := tinyHierarchy(2, LRU, nil)
	target := Addr(0)
	h.Access(0, target, true) // dirty in L1
	var wb int64
	for i := 1; i <= 8; i++ {
		out := h.Access(1, Addr(i*2048), false)
		wb += out.MemWriteBytes
	}
	if h.L3().Probe(target) {
		t.Skip("flood insufficient")
	}
	if wb == 0 {
		t.Error("dirty back-invalidated line produced no memory writeback")
	}
}

// TestInclusionInvariant: every line in L1 or L2 must be in L3.
func TestInclusionInvariant(t *testing.T) {
	h := tinyHierarchy(2, Nehalem, nil)
	rng := stats.NewRNG(11)
	for i := 0; i < 50000; i++ {
		core := int(rng.Uint64n(2))
		a := Addr(rng.Uint64n(1024) * 64)
		h.Access(core, a, rng.Float64() < 0.3)
	}
	for core := 0; core < 2; core++ {
		for _, lvl := range []*Cache{h.L1(core), h.L2(core)} {
			for _, tg := range lvl.tags {
				if tg != invalidTag && !h.L3().Probe(lvl.lineAddr(tg)) {
					t.Fatalf("core %d holds %#x in %s but not in L3",
						core, lvl.lineAddr(tg), lvl.cfg.Name)
				}
			}
		}
	}
}

func TestFetchesEqualMissesWithoutPrefetch(t *testing.T) {
	h := tinyHierarchy(1, LRU, nil)
	rng := stats.NewRNG(5)
	for i := 0; i < 30000; i++ {
		h.Access(0, Addr(rng.Uint64n(2048)*64), false)
	}
	st := h.L3().Stats(0)
	if st.Fetches() != st.Misses {
		t.Errorf("no-prefetch fetches(%d) != misses(%d)", st.Fetches(), st.Misses)
	}
}

func TestFetchesExceedMissesWithPrefetch(t *testing.T) {
	h := tinyHierarchy(1, LRU, func() prefetch.Prefetcher {
		return prefetch.NewStream(prefetch.StreamConfig{})
	})
	// Sequential scan: the streamer should convert most misses into
	// prefetch hits, so fetches >> misses.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 4096; i++ {
			h.Access(0, Addr(1<<20+i*64), false)
		}
	}
	st := h.L3().Stats(0)
	if st.Fetches() <= st.Misses {
		t.Fatalf("stream prefetch: fetches(%d) should exceed misses(%d)", st.Fetches(), st.Misses)
	}
	if st.PrefetchFills == 0 {
		t.Error("no prefetch fills recorded")
	}
}

func TestPrefetchHitFlagged(t *testing.T) {
	h := tinyHierarchy(1, LRU, func() prefetch.Prefetcher {
		return prefetch.NewNextLine()
	})
	h.Access(0, 0, false) // miss; prefetches line 1
	out := h.Access(0, 64, false)
	if out.ServedBy != LevelL3 || !out.PrefetchHit {
		t.Errorf("access to prefetched line: served=%v prefetchHit=%v", out.ServedBy, out.PrefetchHit)
	}
}

func TestFlushCore(t *testing.T) {
	h := tinyHierarchy(2, LRU, nil)
	h.Access(0, 0, false)
	h.Access(1, 4096, false)
	h.FlushCore(0)
	if h.L1(0).Probe(0) || h.L2(0).Probe(0) || h.L3().Probe(0) {
		t.Error("core 0 lines survived FlushCore")
	}
	if !h.L3().Probe(4096) {
		t.Error("FlushCore(0) destroyed core 1's lines")
	}
}

func TestSharedL3PerOwnerStats(t *testing.T) {
	h := tinyHierarchy(2, LRU, nil)
	for i := 0; i < 100; i++ {
		h.Access(0, Addr(i*4096), false) // L2-set conflicts: reaches L3
	}
	h.Access(1, 1<<20, false)
	if h.L3().Stats(0).Accesses == 0 {
		t.Error("core 0 generated no L3 accesses")
	}
	if got := h.L3().Stats(1).Accesses; got != 1 {
		t.Errorf("core 1 L3 accesses = %d, want 1", got)
	}
}

func TestOutcomeL3AccessCounts(t *testing.T) {
	h := tinyHierarchy(1, LRU, nil)
	out := h.Access(0, 0, false)
	if out.L3Accesses != 1 {
		t.Errorf("L3 accesses on miss = %d, want 1", out.L3Accesses)
	}
	out = h.Access(0, 0, false) // L1 hit: no L3 traffic
	if out.L3Accesses != 0 {
		t.Errorf("L1 hit should not touch L3, got %d accesses", out.L3Accesses)
	}
}

func TestResetStats(t *testing.T) {
	h := tinyHierarchy(1, LRU, nil)
	h.Access(0, 0, false)
	h.ResetStats()
	if h.L3().Stats(0).Accesses != 0 || h.L1(0).Stats(0).Accesses != 0 {
		t.Error("ResetStats left non-zero counters")
	}
	// Contents survive: next access hits L1.
	if out := h.Access(0, 0, false); out.ServedBy != LevelL1 {
		t.Error("ResetStats should not flush contents")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() OwnerStats {
		h := tinyHierarchy(2, Nehalem, func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamConfig{})
		})
		rng := stats.NewRNG(99)
		for i := 0; i < 20000; i++ {
			h.Access(int(rng.Uint64n(2)), Addr(rng.Uint64n(4096)*64), rng.Float64() < 0.25)
		}
		return h.L3().TotalStats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("hierarchy nondeterministic: %+v vs %+v", a, b)
	}
}
