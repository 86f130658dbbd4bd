package cache

import (
	"fmt"
	"testing"

	"cachepirate/internal/stats"
)

// The set kernels — table plruTouch, table/descent plruVictim, the
// fixed-length tag scans — are checked here in isolation against the
// loop forms they replaced: Reference's tree descents, and a plain
// first-match scan. The whole-cache suites (equivalence_test.go,
// internal/conformance) then pin them operation for operation in
// context.

// plruWayCounts are the pseudo-LRU associativities Config.Validate
// admits.
var plruWayCounts = []int{1, 2, 4, 8, 16, 32, 64}

// plruTreeWords calls fn with tree words of a ways-way set: every word
// over the node bits 1..ways-1 up to 8 ways, 10k seeded-random ones
// above. That is a superset of the reachable words, which is all the
// kernels can be asked about.
func plruTreeWords(ways int, fn func(tr uint64)) {
	if ways <= 8 {
		for tr := uint64(0); tr < 1<<uint(ways); tr += 2 {
			fn(tr)
		}
		return
	}
	nodeBits := ^uint64(0) >> (64 - uint(ways)) &^ 1
	rng := stats.NewRNG(uint64(ways))
	for i := 0; i < 10_000; i++ {
		fn(rng.Uint64() & nodeBits)
	}
}

func plruPair(ways int) (*Cache, *Reference, *refSet) {
	cfg := Config{Name: "plru", Size: int64(ways) * 64, Ways: ways, LineSize: 64, Policy: PseudoLRU, Owners: 1}
	ref := MustNewReference(cfg)
	return MustNew(cfg), ref, &ref.sets[0]
}

func TestPLRUTouchMatchesReferenceDescent(t *testing.T) {
	for _, ways := range plruWayCounts {
		c, ref, s := plruPair(ways)
		plruTreeWords(ways, func(tr uint64) {
			for w := 0; w < ways; w++ {
				c.meta[0], s.tree = tr, tr
				c.plruTouch(0, w)
				ref.plruTouch(s, w)
				if c.meta[0] != s.tree {
					t.Fatalf("%d ways: touch(%d) on tree %#x = %#x, reference descent %#x", ways, w, tr, c.meta[0], s.tree)
				}
			}
		})
	}
}

func TestPLRUVictimMatchesReferenceDescent(t *testing.T) {
	for lg, ways := range plruWayCounts {
		c, ref, s := plruPair(ways)
		if table := c.plruV != nil; table != (ways <= plruVictimWays) {
			t.Fatalf("%d ways: table victim arm selected = %v", ways, table)
		}
		plruTreeWords(ways, func(tr uint64) {
			c.meta[0], s.tree = tr, tr
			want := ref.plruVictim(s)
			if got := c.plruVictim(0); got != want {
				t.Fatalf("%d ways: victim of tree %#x = %d, reference descent %d", ways, tr, got, want)
			}
			// Each arm on its own, whichever one the cache dispatches to.
			if got := plruDescend(tr, ways); got != want {
				t.Fatalf("%d ways: descent arm on tree %#x = %d, reference descent %d", ways, tr, got, want)
			}
			if ways <= plruVictimWays {
				if got := int(plruVictimTab[lg][uint8(tr)]); got != want {
					t.Fatalf("%d ways: table arm on tree %#x = %d, reference descent %d", ways, tr, got, want)
				}
			}
		})
	}
}

// firstMatch is the scan findWay's arms must agree with.
func firstMatch(t []uint64, tag uint64) int {
	for i, tg := range t {
		if tg == tag {
			return i
		}
	}
	return -1
}

// TestFindWayArms drives findWay for every associativity over the
// middle set of a three-set cache whose neighbours hold the probed tags
// too, so an arm that scans past its set is caught: a match at each
// position, a miss, a half-empty set (invalidTag entries), and every MRU
// hint — right, stale, and pointing at a cleared way.
func TestFindWayArms(t *testing.T) {
	for ways := 1; ways <= 64; ways++ {
		t.Run(fmt.Sprint(ways), func(t *testing.T) {
			c := MustNew(Config{Name: "fw", Size: int64(3*ways) * 64, Ways: ways, LineSize: 64, Policy: LRU, Owners: 1})
			const si = 1
			base := si * ways
			set := c.tags[base : base+ways]
			const absent = 0xABCDEF
			check := func(what string, tag uint64) {
				t.Helper()
				want := firstMatch(set, tag)
				for h := 0; h < ways; h++ {
					c.mru[si] = int32(h)
					if got := c.findWay(base, si, tag); got != want {
						t.Fatalf("%s: findWay(%#x) with hint %d = %d, first-match scan %d", what, tag, h, got, want)
					}
				}
				if got := matchN(set, tag); got != want {
					t.Fatalf("%s: matchN(%#x) = %d, first-match scan %d", what, tag, got, want)
				}
			}
			for w := range set {
				set[w] = 1000 + uint64(w)
			}
			for i := range c.tags {
				if i < base || i >= base+ways {
					c.tags[i] = 1000 + uint64(i%ways) // the probed tags, out of range
				}
			}
			c.tags[0], c.tags[len(c.tags)-1] = absent, absent
			for w := range set {
				check("full set", set[w])
			}
			check("full set", absent)

			// Clear every other way (and the last): hints now point at
			// cleared ways half the time.
			for w := 0; w < ways; w += 2 {
				set[w] = invalidTag
			}
			set[ways-1] = invalidTag
			for w := range set {
				if set[w] != invalidTag {
					check("half-empty set", set[w])
				}
				check("half-empty set", 1000+uint64(w)) // cleared ways' old tags: misses
			}
			check("half-empty set", absent)
		})
	}
}
