package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/stats"
)

// replicaFamilies are the L3 geometries TestReplicaViewsMatchStandalone
// lays out: way-shrunk (one set-major band), set-shrunk (a band per
// replica, modulo set indices included) and a mix of the two (bands of
// one to three). Way counts are powers of two, so every policy applies.
func replicaFamilies(policy cache.PolicyKind) map[string][]cache.Config {
	geom := func(sets, ways int) cache.Config {
		return cache.Config{Name: "L3", Size: int64(sets * ways * 64), Ways: ways, LineSize: 64, Policy: policy, Owners: 1}
	}
	fam := map[string][]cache.Config{}
	for _, w := range []int{16, 1, 8, 2, 32, 4, 64} {
		fam["ways"] = append(fam["ways"], geom(8, w))
	}
	for _, s := range []int{16, 12, 8, 6, 4, 3, 2} {
		fam["sets"] = append(fam["sets"], geom(s, 4))
	}
	for _, g := range [][2]int{{8, 2}, {8, 4}, {6, 4}, {6, 2}, {6, 8}, {16, 1}, {3, 4}} {
		fam["mixed"] = append(fam["mixed"], geom(g[0], g[1]))
	}
	return fam
}

// sameCache reports the first way in which replica rep and the
// stand-alone cache want differ, through every whole-cache walk.
func sameCache(rep, want *cache.Cache, cands []cache.Config) error {
	if r, w := rep.Stats(0), want.Stats(0); r != w {
		return fmt.Errorf("stats %+v, stand-alone %+v", r, w)
	}
	if r, w := rep.ResidentLines(0), want.ResidentLines(0); r != w {
		return fmt.Errorf("%d resident lines, stand-alone %d", r, w)
	}
	if err := compareLines(want, rep); err != nil {
		return err
	}
	if r, w := rep.FootprintFits(cands), want.FootprintFits(cands); !reflect.DeepEqual(r, w) {
		return fmt.Errorf("FootprintFits %v, stand-alone %v", r, w)
	}
	if err := CheckCache(rep); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	return CheckCache(want)
}

// TestReplicaViewsMatchStandalone pins the set-major layout from the
// outside: every L3 replica of a fused hierarchy of 1, 2 or 7, laid out
// by ways, by sets or mixed, and built on a backing another family left
// dirty, is the cache New builds, through the whole Cache API. One random stream of every Cache operation is
// fed record by record to every replica in turn — the fused engine's
// order, so a replica writing outside its part of a set would corrupt
// its neighbour before the neighbour's own access — and to a
// stand-alone cache per replica; after init, mid-stream, after flushing
// every other replica and at the end, each replica must equal its
// stand-alone twin through Stats, ResidentLines, ForEachLine,
// FootprintFits (peakSetLoad) and CheckCache.
func TestReplicaViewsMatchStandalone(t *testing.T) {
	viewsHier := cache.HierarchyConfig{
		L1: cache.Config{Name: "L1", Size: 512, Ways: 2, LineSize: 64, Policy: cache.LRU, Owners: 1},
		L2: cache.Config{Name: "L2", Size: 1 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU, Owners: 1},
	}
	for _, policy := range []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random} {
		for name, fam := range replicaFamilies(policy) {
			for _, n := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("%s/%s/%d", policy, name, n), func(t *testing.T) {
					cfgs := fam[:n]
					b := &cache.FusedBacking{}
					dirty, err := cache.NewFusedHierarchyL3(viewsHier, replicaFamilies(cache.LRU)["mixed"], b)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 4000; i++ {
						dirty.Access(i%7, cache.Addr(i*192), i%3 == 0)
					}
					fh, err := cache.NewFusedHierarchyL3(viewsHier, cfgs, b)
					if err != nil {
						t.Fatal(err)
					}
					rep := fh.L3
					solo := make([]*cache.Cache, n)
					for k, cfg := range cfgs {
						solo[k] = cache.MustNew(cfg)
					}
					check := func(when string) {
						t.Helper()
						for k := range cfgs {
							if err := sameCache(rep(k), solo[k], fam); err != nil {
								t.Fatalf("%s: replica %d (%d sets x %d ways): %v", when, k, cfgs[k].Sets(), cfgs[k].Ways, err)
							}
						}
					}
					check("after init")
					rng := stats.NewRNG(uint64(n*131 + int(policy)))
					const ops = 6000
					for i := 0; i < ops; i++ {
						a := cache.Addr(rng.Uint64n(1536) * 64)
						write := rng.Uint64n(4) == 0
						op := rng.Uint64n(16)
						for k := range cfgs {
							for _, c := range []*cache.Cache{rep(k), solo[k]} {
								switch {
								case op < 7:
									c.AccessFill(a, write, 0)
								case op < 9:
									c.Access(a, write, 0)
								case op < 10:
									c.Fill(a, 0, true, false)
								case op < 11:
									if !c.Probe(a) {
										c.FillMissed(a, 0, false, write)
									}
								case op < 13:
									c.Invalidate(a)
								default:
									c.MarkDirty(a)
								}
							}
						}
						switch i {
						case ops / 3:
							check("mid-stream")
						case 2 * ops / 3:
							// Every other replica, so that a Flush reaching
							// past its own parts shows in a neighbour.
							for k := 0; k < n; k += 2 {
								rep(k).Flush()
								solo[k].Flush()
							}
							check("after Flush")
						}
					}
					check("at the end")
				})
			}
		}
	}
}
