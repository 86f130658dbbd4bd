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
// contract the fused sweep leans on. A backing grown by the families
// built on it serves any of them again without reallocating any array,
// and a hierarchy built on used storage is indistinguishable from one
// built on fresh storage: every array an earlier family dirtied (flags,
// stamps, policy metadata) is back to its empty state, in the arrays a
// family of another shape reads too. Each row builds its two families
// on one backing, starting empty, in the order first, second, first,
// second; the second build grows the backing to cover both, so the
// last two must reallocate nothing.
func TestFusedBackingReuse(t *testing.T) {
	priv := func(l1, l2 PolicyKind) HierarchyConfig {
		return HierarchyConfig{
			L1: Config{Size: 1 << 10, Ways: 2, LineSize: 64, Policy: l1},
			L2: Config{Size: 4 << 10, Ways: 4, LineSize: 64, Policy: l2},
		}
	}
	l3 := func(policy PolicyKind, size int64, ways int) Config {
		return Config{Size: size, Ways: ways, LineSize: 64, Policy: policy}
	}
	type family struct {
		hcfg HierarchyConfig
		l3   []Config
	}
	// big has the most lines, wide the most sets and replicas: the
	// backing must cover each maximum separately.
	big := func(policy PolicyKind) []Config {
		return []Config{l3(policy, 16<<10, 8), l3(policy, 12<<10, 8)}
	}
	wide := func(policy PolicyKind) []Config {
		return []Config{l3(policy, 2<<10, 2), l3(policy, 4<<10, 2), l3(policy, 6<<10, 2)}
	}
	type row struct {
		name          string
		first, second family
	}
	var rows []row
	for _, policy := range []PolicyKind{LRU, Nehalem, PseudoLRU, Random} {
		rows = append(rows, row{policy.String(),
			family{priv(LRU, PseudoLRU), big(policy)}, family{priv(LRU, PseudoLRU), wide(policy)}})
	}
	rows = append(rows,
		// No stamps anywhere, then stamps at every level: they must
		// appear, and start zeroed when the backing comes round again.
		row{"non-LRU then LRU",
			family{priv(PseudoLRU, PseudoLRU), big(Nehalem)}, family{priv(LRU, LRU), wide(LRU)}},
		row{"LRU then non-LRU",
			family{priv(LRU, LRU), big(LRU)}, family{priv(PseudoLRU, Nehalem), wide(Random)}},
		// Constant sets, then constant ways with modulo-indexed set counts.
		row{"by ways then by sets",
			family{priv(LRU, PseudoLRU), []Config{l3(LRU, 16<<10, 8), l3(LRU, 14<<10, 7), l3(LRU, 8<<10, 4), l3(LRU, 2<<10, 1)}},
			family{priv(LRU, PseudoLRU), []Config{l3(LRU, 16<<10, 8), l3(LRU, 12<<10, 8), l3(LRU, 8<<10, 8), l3(LRU, 6<<10, 8)}}},
	)

	drive := func(f *FusedHierarchy, seed uint64) []Outcome {
		rng := stats.NewRNG(seed)
		outs := make([]Outcome, 0, 4000*len(f.l3.reps))
		for i := 0; i < 4000; i++ {
			addr := Addr(rng.Intn(40<<10)) &^ 63
			write := rng.Intn(3) == 0
			for k := 0; k < len(f.l3.reps); k++ {
				outs = append(outs, f.Access(k, addr, write))
			}
		}
		return outs
	}
	levels := func(f *FusedHierarchy) []*Replicas { return []*Replicas{f.l1, f.l2, f.l3} }

	for _, r := range rows {
		b := &FusedBacking{}
		var grown []uintptr
		for step, fam := range []family{r.first, r.second, r.first, r.second} {
			reused, err := NewFusedHierarchyL3(fam.hcfg, fam.l3, b)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case step == 1:
				grown = backingHeads(b)
			case step > 1 && !slices.Equal(backingHeads(b), grown):
				t.Errorf("%s: step %d reallocated a backing that already held both families", r.name, step)
			}
			fresh, err := NewFusedHierarchyL3(fam.hcfg, fam.l3, nil)
			if err != nil {
				t.Fatal(err)
			}
			for l, g := range levels(reused) {
				for k := range g.reps {
					if err := sameState(&g.reps[k], &levels(fresh)[l].reps[k]); err != nil {
						t.Errorf("%s: step %d level %d replica %d starts with stale line state on reused storage: %v", r.name, step, l+1, k, err)
					}
				}
			}
			seed := uint64(11 + step)
			got, want := drive(reused, seed), drive(fresh, seed)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: step %d access %d on reused storage = %+v, on fresh storage %+v", r.name, step, i, got[i], want[i])
				}
			}
			for l, g := range levels(reused) {
				for k := range g.reps {
					if err := sameState(&g.reps[k], &levels(fresh)[l].reps[k]); err != nil {
						t.Errorf("%s: step %d level %d replica %d after the stream: %v", r.name, step, l+1, k, err)
					}
				}
			}
			for k := 0; k < len(fresh.l3.reps); k++ {
				if g, w := reused.L3(k).Stats(0), fresh.L3(k).Stats(0); g != w {
					t.Errorf("%s: step %d replica %d L3 stats on reused storage %+v, fresh %+v", r.name, step, k, g, w)
				}
			}
		}
	}
}

// TestFusedBackingGrows: an empty or too small backing still builds any
// valid family (it grows), and an invalid L3 geometry is rejected.
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
	b := &FusedBacking{}
	if _, err := NewFusedHierarchyL3(hcfg, small, b); err != nil {
		t.Fatal(err)
	}
	f, err := NewFusedHierarchyL3(hcfg, big, b)
	if err != nil {
		t.Fatal(err)
	}
	if out := f.Access(1, 0x1000, true); out.ServedBy != LevelMem {
		t.Errorf("first access on a grown backing served by %v, want memory", out.ServedBy)
	}
	if _, err := NewFusedHierarchyL3(hcfg, []Config{{Size: 1000, Ways: 3, LineSize: 64}}, b); err == nil {
		t.Error("backing accepted an invalid L3 geometry")
	}

	// A backing covering b holds what was built on b: building those
	// families on it again replaces no array.
	c := &FusedBacking{}
	c.Cover(b)
	for _, l3 := range [][]Config{small, big} {
		before := backingHeads(c)
		if _, err := NewFusedHierarchyL3(hcfg, l3, c); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(backingHeads(c), before) {
			t.Errorf("a backing covering b reallocated for a %d-replica family built on b", len(l3))
		}
	}
}

// backingHeads returns the address of every array of b, for telling a
// reused array from a reallocated one.
func backingHeads(b *FusedBacking) []uintptr {
	var h []uintptr
	for _, s := range []*lineStore{&b.l1, &b.l2, &b.l3} {
		for _, a := range []any{s.tags, s.flags, s.owner, s.stamp, s.meta, s.free} {
			h = append(h, reflect.ValueOf(a).Pointer())
		}
	}
	return h
}

// TestFusedAccessOutcomeMatchesHierarchy pins the packed outcome's
// decode: FusedHierarchy.Access — AccessPacked's word, expanded — must
// return Hierarchy.Access's Outcome field for field on every access,
// including the fields the word only implies (L3 port uses and DRAM
// read bytes follow from the served level and the prefetch count), with
// a prefetcher filling several lines per access and an L3 small enough
// that writebacks reach DRAM. The two walks are separate flattened
// bodies (DESIGN.md §7), so after the stream every level's complete
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
		}{{"L1", h.L1(0), f.l1.Rep(0)}, {"L2", h.L2(0), f.l2.Rep(0)}, {"L3", h.L3(), f.L3(0)}} {
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
