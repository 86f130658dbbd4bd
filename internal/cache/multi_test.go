package cache

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"cachepirate/internal/prefetch"
	"cachepirate/internal/stats"
)

// TestFusedBackingReuse pins the two halves of the backing-block
// contract the serial fused sweep leans on. A backing sized for a set of
// groups serves each group in turn without reallocating any array, and a
// hierarchy built on used storage is indistinguishable from one built on
// fresh storage: every array the first group dirtied (flags, stamps,
// policy metadata) is back to its empty state.
func TestFusedBackingReuse(t *testing.T) {
	for _, policy := range []PolicyKind{LRU, Nehalem, PseudoLRU, Random} {
		hcfg := HierarchyConfig{
			L1: Config{Size: 1 << 10, Ways: 2, LineSize: 64, Policy: LRU},
			L2: Config{Size: 4 << 10, Ways: 4, LineSize: 64, Policy: PseudoLRU},
		}
		l3 := func(size int64, ways int) Config {
			return Config{Size: size, Ways: ways, LineSize: 64, Policy: policy}
		}
		// The first group has the most lines, the second the most sets
		// and replicas: the backing must cover each maximum separately.
		groups := [][]Config{
			{l3(16<<10, 8), l3(12<<10, 8)},
			{l3(2<<10, 2), l3(4<<10, 2), l3(6<<10, 2)},
		}
		b, err := NewFusedBacking(hcfg, groups)
		if err != nil {
			t.Fatal(err)
		}
		stores := []*lineStore{&b.l1, &b.l2, &b.l3}
		type block struct {
			tags *uint64
			meta *uint64
		}
		var before []block
		for _, s := range stores {
			before = append(before, block{&s.tags[:1][0], &s.meta[:1][0]})
		}

		rng := stats.NewRNG(11)
		drive := func(f *FusedHierarchy, n int) []Outcome {
			outs := make([]Outcome, 0, n*f.Replicas())
			for i := 0; i < n; i++ {
				addr := Addr(rng.Intn(40<<10)) &^ 63
				write := rng.Intn(3) == 0
				for k := 0; k < f.Replicas(); k++ {
					outs = append(outs, f.Access(k, addr, write))
				}
			}
			return outs
		}

		first, err := NewFusedHierarchyL3(hcfg, groups[0], b)
		if err != nil {
			t.Fatal(err)
		}
		drive(first, 4000)

		reused, err := NewFusedHierarchyL3(hcfg, groups[1], b)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range stores {
			if &s.tags[:1][0] != before[i].tags || &s.meta[:1][0] != before[i].meta {
				t.Errorf("%v: level %d backing reallocated for the second group", policy, i+1)
			}
		}

		fresh, err := NewFusedHierarchyL3(hcfg, groups[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		for l, pair := range [][2]*Replicas{{reused.l1, fresh.l1}, {reused.l2, fresh.l2}, {reused.l3, fresh.l3}} {
			for k := range pair[1].reps {
				g, w := &pair[0].reps[k], &pair[1].reps[k]
				if !reflect.DeepEqual(g.tags, w.tags) || !reflect.DeepEqual(g.flags, w.flags) ||
					!reflect.DeepEqual(g.owner, w.owner) || !reflect.DeepEqual(g.stamp, w.stamp) ||
					!reflect.DeepEqual(g.meta, w.meta) || !reflect.DeepEqual(g.free, w.free) {
					t.Errorf("%v: level %d replica %d starts with stale line state on reused storage", policy, l+1, k)
				}
			}
		}
		rng = stats.NewRNG(23)
		got := drive(reused, 4000)
		rng = stats.NewRNG(23)
		want := drive(fresh, 4000)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: access %d on reused storage = %+v, on fresh storage %+v", policy, i, got[i], want[i])
			}
		}
		for k := 0; k < fresh.Replicas(); k++ {
			if g, w := reused.L3(k).Stats(0), fresh.L3(k).Stats(0); g != w {
				t.Errorf("%v: replica %d L3 stats on reused storage %+v, fresh %+v", policy, k, g, w)
			}
		}
	}
}

// TestFusedBackingGrows: a backing too small for a group still builds
// it (sizing is an optimisation, never a precondition).
func TestFusedBackingGrows(t *testing.T) {
	hcfg := HierarchyConfig{
		L1: Config{Size: 1 << 10, Ways: 2, LineSize: 64, Policy: LRU},
		L2: Config{Size: 4 << 10, Ways: 4, LineSize: 64, Policy: LRU},
	}
	small := []Config{{Size: 4 << 10, Ways: 4, LineSize: 64, Policy: LRU}}
	big := []Config{
		{Size: 16 << 10, Ways: 8, LineSize: 64, Policy: LRU},
		{Size: 8 << 10, Ways: 8, LineSize: 64, Policy: LRU},
	}
	b, err := NewFusedBacking(hcfg, [][]Config{small})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFusedHierarchyL3(hcfg, big, b)
	if err != nil {
		t.Fatal(err)
	}
	if out := f.Access(1, 0x1000, true); out.ServedBy != LevelMem {
		t.Errorf("first access on a grown backing served by %v, want memory", out.ServedBy)
	}
	if _, err := NewFusedBacking(hcfg, [][]Config{{{Size: 1000, Ways: 3, LineSize: 64}}}); err == nil {
		t.Error("backing accepted an invalid L3 geometry")
	}
}

// TestFusedAccessOutcomeMatchesHierarchy pins the packed outcome's
// decode: FusedHierarchy.Access — AccessPacked's word, expanded — must
// return Hierarchy.Access's Outcome field for field on every access,
// including the fields the word only implies (L3 port uses and DRAM
// read bytes follow from the served level and the prefetch count), with
// a prefetcher filling several lines per access and an L3 small enough
// that writebacks reach DRAM. The two walks are separate flattened
// bodies (DESIGN.md §8), so after the stream every level's complete
// line and replacement state, and the L3's counters, must be equal too:
// a drift that no outcome has shown yet still fails.
func TestFusedAccessOutcomeMatchesHierarchy(t *testing.T) {
	for _, policy := range []PolicyKind{LRU, Nehalem, PseudoLRU, Random} {
		hcfg := HierarchyConfig{
			Cores: 1,
			L1:    Config{Size: 1 << 10, Ways: 2, LineSize: 64, Policy: PseudoLRU},
			L2:    Config{Size: 4 << 10, Ways: 4, LineSize: 64, Policy: PseudoLRU},
			L3:    Config{Size: 16 << 10, Ways: 8, LineSize: 64, Policy: policy},
			NewPrefetcher: func() prefetch.Prefetcher {
				return prefetch.NewStream(prefetch.StreamConfig{Streams: 4, Degree: 3, Confirm: 2})
			},
		}
		h, err := NewHierarchy(hcfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFusedHierarchyL3(hcfg, []Config{hcfg.L3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(5)
		var prefetches, writebacks, prefetchHit bool
		addr := Addr(0)
		for i := 0; i < 40000; i++ {
			// Sequential runs train the prefetcher; random jumps over
			// three times the L3 keep every level evicting.
			if rng.Intn(8) == 0 {
				addr = Addr(rng.Intn(48<<10)) &^ 63
			} else {
				addr += 64
			}
			write := rng.Intn(3) == 0
			want := h.Access(0, addr, write)
			if got := f.Access(0, addr, write); got != want {
				t.Fatalf("%v: access %d (%#x, write %v) = %+v, Hierarchy.Access %+v", policy, i, addr, write, got, want)
			}
			prefetches = prefetches || want.Prefetches > 1
			writebacks = writebacks || want.MemWriteBytes > 64
			prefetchHit = prefetchHit || want.PrefetchHit
		}
		if !prefetches || !writebacks || !prefetchHit {
			t.Errorf("%v: stream never produced a multi-line prefetch (%v), a multi-line writeback (%v) or a prefetch hit (%v)",
				policy, prefetches, writebacks, prefetchHit)
		}
		for _, lv := range []struct {
			name string
			h, f *Cache
		}{{"L1", h.L1(0), f.L1(0)}, {"L2", h.L2(0), f.L2(0)}, {"L3", h.L3(), f.L3(0)}} {
			if err := sameState(lv.h, lv.f); err != nil {
				t.Errorf("%v: %s after the stream: %v", policy, lv.name, err)
			}
		}
		if g, w := f.L3(0).Stats(0), h.L3().Stats(0); g != w {
			t.Errorf("%v: fused L3 stats %+v, Hierarchy %+v", policy, g, w)
		}
	}
}

// sameState reports the first difference between two caches' line and
// replacement state: every array a walk writes except the statistics.
func sameState(a, b *Cache) error {
	switch {
	case !slices.Equal(a.tags, b.tags):
		return errors.New("tags differ")
	case !slices.Equal(a.flags, b.flags):
		return errors.New("dirty/prefetch flags differ")
	case !slices.Equal(a.owner, b.owner):
		return errors.New("owner bytes differ")
	case !slices.Equal(a.stamp, b.stamp) || a.clock != b.clock:
		return errors.New("LRU stamps differ")
	case !slices.Equal(a.meta, b.meta):
		return errors.New("replacement metadata differs")
	case !slices.Equal(a.free, b.free):
		return errors.New("free masks differ")
	case a.rngState != b.rngState:
		return errors.New("random-policy state differs")
	}
	return nil
}
