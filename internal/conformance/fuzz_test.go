package conformance

import (
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/stats"
)

// FuzzKernel feeds arbitrary bytes through the total DecodeKernel
// mapping and replays the resulting stream through the SoA kernel and
// the Reference oracle. Any divergence or invariant violation fails
// with the stream ddmin-minimised by Minimize. The seeds are one
// generated stream per policy, the hammer and ping-pong patterns on the
// tiny high-pressure geometry, and pseudo-LRU at 8, 16 and 32 ways (its
// last victim-table geometry and both tree-descent ones). A saved
// failing input replays with `go test -run 'FuzzKernel/<file>'`.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{})
	add := func(sel byte, seed uint64, pat Pattern) {
		cfg, _ := DecodeKernel([]byte{sel})
		f.Add(EncodeKernel(cfg, GenOps(stats.NewRNG(seed), cfg, pat, 200)))
	}
	pats := Patterns()
	for i, pol := range []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random} {
		add(byte(int(pol)|i<<2), uint64(100+i), pats[i%len(pats)])
	}
	for _, pat := range []Pattern{PatternHammer, PatternPingPong} {
		add(1<<2, uint64(7+int(pat)), pat)
	}
	for i, geom := range []int{1, 3, 4} {
		add(byte(int(cache.PseudoLRU)|geom<<2), uint64(300+i), pats[(i+1)%len(pats)])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := DecodeKernel(data)
		if ReplayKernel(cfg, ops) == nil {
			return
		}
		min := Minimize(ops, func(cand []Op) bool { return ReplayKernel(cfg, cand) != nil })
		t.Fatalf("kernel divergence (minimised from %d to %d ops):\n%s",
			len(ops), len(min), ReplayKernel(cfg, min).Report(cfg, min))
	})
}

// FuzzHierarchy does the same for full multicore hierarchies: arbitrary
// bytes become a shape selection plus a multi-core stream of demand,
// non-temporal and coherent-store ops, replayed through cache.Hierarchy
// and the RefHierarchy oracle with L3 evictions back-invalidating every
// core and then only the victim's owner. Outcomes and every counter must
// agree after every op, every line periodically, and the hierarchy
// invariants (inclusivity, conservation, residency, outcome sanity)
// must hold throughout. The seeds are one generated stream per shape.
func FuzzHierarchy(f *testing.F) {
	f.Add([]byte{})
	for shape, cfg := range hierarchyShapes {
		f.Add(EncodeHierarchy(shape, GenHOps(stats.NewRNG(uint64(200+shape)), cfg, 200)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := DecodeHierarchy(data)
		if err := ReplayHierarchy(cfg, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzFusedHierarchy feeds arbitrary bytes through DecodeFused — a
// replica family by ways or by sets, of any policy, with or without a
// prefetcher — and replays the stream record by record through every
// replica of a cache.FusedHierarchy and through a 1-core
// cache.Hierarchy per replica. Outcome words and L3 counters must agree
// after every access. The seeds are, per shape, a seven-replica family
// by ways and one by sets, under a policy and prefetch toggle that vary
// with the shape.
func FuzzFusedHierarchy(f *testing.F) {
	f.Add([]byte{})
	for shape, cfg := range hierarchyShapes {
		for mode := range 2 {
			family := byte(mode) | 6<<1 | byte(shape%4)<<4 | byte(shape%2)<<6
			ops := GenFOps(stats.NewRNG(uint64(400+2*shape+mode)), cfg, 200)
			f.Add(EncodeFused(byte(shape), family, ops))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fam, ops := DecodeFused(data)
		if err := ReplayFused(fam, ops); err != nil {
			t.Fatal(err)
		}
	})
}
