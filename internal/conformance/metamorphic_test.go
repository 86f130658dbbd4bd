package conformance

// Metamorphic properties: instead of comparing against a second
// implementation, these tests compare the simulator against *itself
// under a transformed configuration* where theory dictates the
// relation between the two results:
//
//   - Mattson's stack-inclusion property: LRU misses are monotonically
//     non-increasing in associativity at a fixed set count.
//   - The stack-distance model predicts fully-associative LRU *exactly*
//     and set-associative LRU approximately.
//   - A Target co-run against a Pirate stealing w ways behaves like a
//     solo run on a machine whose L3 simply lost those w ways — the
//     central claim of the Cache Pirating method.

import (
	"fmt"
	"math"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/core"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/stats"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// demandLineStream generates n line-granular demand addresses over
// spanLines lines following the pattern; set-mapping is computed for
// `sets` so hammer streams stay adversarial at every associativity
// tested with that fixed set count.
func demandLineStream(seed uint64, pattern Pattern, spanLines, sets uint64, n int) []cache.Addr {
	rng := stats.NewRNG(seed)
	addrs := make([]cache.Addr, n)
	for i := range addrs {
		var la uint64
		switch pattern {
		case PatternSweep:
			la = uint64(i) % spanLines
		case PatternHammer:
			if rng.Uint64n(8) != 0 {
				la = rng.Uint64n(spanLines/sets+1) * sets
			} else {
				la = rng.Uint64n(spanLines)
			}
		default:
			la = rng.Uint64n(spanLines)
		}
		addrs[i] = cache.Addr(la * 64)
	}
	return addrs
}

// missesAt replays a demand stream (access + fill on miss) through a
// sets x ways cache and returns the miss count.
func missesAt(t *testing.T, pol cache.PolicyKind, sets, ways int, addrs []cache.Addr) uint64 {
	t.Helper()
	c, err := cache.New(cache.Config{
		Name: fmt.Sprintf("m-%dx%d", sets, ways), Size: int64(sets * ways * 64),
		Ways: ways, LineSize: 64, Policy: pol, Owners: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		c.AccessFill(a, false, 0)
	}
	return c.Stats(0).Misses
}

// TestLRUMissMonotonicity is Mattson's inclusion property: at a fixed
// set count a W-way LRU set contains everything a (W-1)-way set does,
// so misses must never increase as associativity grows — for any
// stream, including the adversarial ones. This is exact, not
// statistical.
func TestLRUMissMonotonicity(t *testing.T) {
	const sets = 16
	waysSteps := []int{1, 2, 3, 4, 6, 8, 12, 16}
	for _, pat := range Patterns() {
		t.Run(pat.String(), func(t *testing.T) {
			// Span 2x the largest capacity tested.
			addrs := demandLineStream(uint64(42+int(pat)), pat, 2*sets*16, sets, 50_000)
			var curve []float64
			prev := ^uint64(0)
			for _, w := range waysSteps {
				m := missesAt(t, cache.LRU, sets, w, addrs)
				curve = append(curve, float64(m))
				if m > prev {
					t.Fatalf("misses increased with associativity: %d ways -> %d misses (previous step %d)",
						w, m, prev)
				}
				prev = m
			}
			if err := CheckMonotonic(reverse(curve)); err != nil {
				t.Fatalf("miss curve not monotone: %v (curve %v)", err, curve)
			}
		})
	}
}

func reverse(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// TestPolicyMonotonicityLoose: the non-stack policies (pseudo-LRU,
// Nehalem, Random) do not obey strict inclusion, but a 16-way cache
// must still miss dramatically less than a direct-mapped one of 1/16
// the capacity on reuse-friendly streams, and never meaningfully more
// on any stream tested.
func TestPolicyMonotonicityLoose(t *testing.T) {
	const sets = 16
	for _, pol := range []cache.PolicyKind{cache.PseudoLRU, cache.Nehalem, cache.Random} {
		for _, pat := range Patterns() {
			t.Run(pol.String()+"/"+pat.String(), func(t *testing.T) {
				addrs := demandLineStream(uint64(7+int(pat)), pat, 2*sets*16, sets, 50_000)
				m1 := missesAt(t, pol, sets, 1, addrs)
				m16 := missesAt(t, pol, sets, 16, addrs)
				if float64(m16) > 1.05*float64(m1) {
					t.Fatalf("%s: 16-way missed more than direct-mapped: %d vs %d", pol, m16, m1)
				}
			})
		}
	}
}

// randomTrace builds an in-memory trace of n uniform line accesses
// over spanLines lines.
func randomTrace(seed, spanLines uint64, n int) *trace.Trace {
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{Records: make([]trace.Record, n)}
	for i := range tr.Records {
		tr.Records[i] = trace.Record{
			NInstr: uint32(rng.Uint64n(4)),
			Addr:   rng.Uint64n(spanLines) * 64,
			Write:  rng.Uint64n(8) == 0,
		}
	}
	return tr
}

// TestStackDistExactFullyAssociative: for a single-set (fully
// associative) LRU cache of W lines, simulation and the stack-distance
// model must agree *exactly*: an access misses iff its reuse distance
// is >= W or infinite. This pins the analytical model and the
// simulator to each other with zero tolerance.
func TestStackDistExactFullyAssociative(t *testing.T) {
	tr := randomTrace(11, 96, 20_000)
	dists := stackdist.Distances(tr)
	for _, w := range []int{2, 4, 8, 16, 32, 64} {
		var predicted uint64
		for _, d := range dists {
			if d == stackdist.Infinite || d >= int64(w) {
				predicted++
			}
		}
		c := cache.MustNew(cache.Config{
			Name: "fa", Size: int64(w) * 64, Ways: w, LineSize: 64,
			Policy: cache.LRU, Owners: 1,
		})
		for _, r := range tr.Records {
			c.AccessFill(cache.Addr(r.Addr), r.Write, 0)
		}
		if got := c.Stats(0).Misses; got != predicted {
			t.Fatalf("W=%d: simulated %d misses, stack-distance model predicts %d", w, got, predicted)
		}
	}
}

// TestStackDistSetAssociativeAgreement: for a set-associative LRU
// cache on a uniform stream the independent-sets approximation
// (threshold at sets*ways lines) must track the simulator closely.
func TestStackDistSetAssociativeAgreement(t *testing.T) {
	const tol = 0.05
	tr := randomTrace(13, 1024, 60_000)
	h, err := stackdist.Analyze(tr, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ sets, ways int }{{64, 8}, {32, 4}, {128, 2}} {
		c := cache.MustNew(cache.Config{
			Name: "sa", Size: int64(shape.sets * shape.ways * 64),
			Ways: shape.ways, LineSize: 64, Policy: cache.LRU, Owners: 1,
		})
		for _, r := range tr.Records {
			c.AccessFill(cache.Addr(r.Addr), r.Write, 0)
		}
		s := c.Stats(0)
		sim := float64(s.Misses) / float64(s.Accesses)
		pred := h.MissRatio(int64(shape.sets * shape.ways))
		if d := math.Abs(sim - pred); d > tol {
			t.Errorf("%dx%d: simulated miss ratio %.4f vs stack-distance prediction %.4f (|d|=%.4f > %.2f)",
				shape.sets, shape.ways, sim, pred, d, tol)
		}
	}
}

// pirateTestMachine mirrors core's scaled-down test system with a
// selectable L3 policy: 64KB 16-way L3, tiny private levels, no
// prefetcher.
func pirateTestMachine(pol cache.PolicyKind) machine.Config {
	cfg := machine.NehalemConfig()
	cfg.Cores = 4
	cfg.L1 = cache.Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Policy: cache.LRU}
	cfg.L2 = cache.Config{Name: "L2", Size: 4 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU}
	cfg.L3 = cache.Config{Name: "L3", Size: 64 << 10, Ways: 16, LineSize: 64, Policy: pol}
	cfg.NewPrefetcher = nil
	return cfg
}

func targetGen(seed uint64) workload.Generator {
	return workload.NewRandomAccess(workload.RandomConfig{
		Name: "target", Span: 40 << 10, NInstr: 3, MLP: 2, Seed: seed})
}

const (
	pirateWarmupInstrs  = 80_000
	pirateMeasureInstrs = 300_000
)

// soloMissRatio runs the target alone on a machine whose L3 keeps only
// `ways` ways and returns its steady-state L3 miss ratio.
func soloMissRatio(t *testing.T, cfg machine.Config, ways int) float64 {
	t.Helper()
	m, err := machine.New(machine.WithL3Ways(cfg, ways))
	if err != nil {
		t.Fatal(err)
	}
	m.MustAttach(0, targetGen(1))
	if err := m.RunInstructions(0, pirateWarmupInstrs); err != nil {
		t.Fatal(err)
	}
	iv, err := counters.Interval(m, func() error { return m.RunInstructions(0, pirateMeasureInstrs) })
	if err != nil {
		t.Fatal(err)
	}
	return iv[0].MissRatio()
}

// coRunMissRatio runs the same target against a Pirate stealing
// stealWays of the full L3 and returns the target's L3 miss ratio.
func coRunMissRatio(t *testing.T, cfg machine.Config, stealWays int) float64 {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.MustAttach(0, targetGen(1))
	p, err := core.NewPirate(m, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	wayBytes := cfg.L3.Size / int64(cfg.L3.Ways) // the Pirate's quantum
	if err := p.SetWSS(int64(stealWays)*wayBytes, 3); err != nil {
		t.Fatal(err)
	}
	// Fig. 5 sequence: pirate warms its footprint with the target
	// halted, then both run together to steady state.
	m.Suspend(0)
	if err := p.Warm(2); err != nil {
		t.Fatal(err)
	}
	m.Resume(0)
	p.Resume()
	if err := m.RunInstructions(0, pirateWarmupInstrs); err != nil {
		t.Fatal(err)
	}
	iv, err := counters.Interval(m, func() error { return m.RunInstructions(0, pirateMeasureInstrs) })
	if err != nil {
		t.Fatal(err)
	}
	return iv[0].MissRatio()
}

// TestPirateMatchesShrunkCache is the method's central metamorphic
// property (§II-A): a Target co-run against a Pirate stealing w ways
// must behave like a solo run on a machine with w fewer L3 ways. Runs
// for every replacement policy — the paper argues the method is
// policy-agnostic as long as the Pirate keeps its lines hot.
func TestPirateMatchesShrunkCache(t *testing.T) {
	const steal = 8
	for _, pol := range policies {
		// Way-stealing is only exact when the replacement policy
		// protects the Pirate's recently-touched lines; Random evicts
		// uniformly, so the Pirate loses ground and the agreement is
		// necessarily looser (the paper's method assumes an LRU-family
		// LLC; the Random bound documents the degradation).
		tol := 0.06
		if pol == cache.Random {
			tol = 0.15
		}
		t.Run(pol.String(), func(t *testing.T) {
			cfg := pirateTestMachine(pol)
			solo := soloMissRatio(t, cfg, 16-steal)
			co := coRunMissRatio(t, cfg, steal)
			if d := math.Abs(co - solo); d > tol {
				t.Errorf("co-run miss ratio %.4f vs shrunk-cache solo %.4f (|d|=%.4f > %.2f)",
					co, solo, d, tol)
			}
			full := soloMissRatio(t, cfg, 16)
			if co < full-0.02 {
				t.Errorf("co-run miss ratio %.4f below full-cache solo %.4f — pirate stole nothing?",
					co, full)
			}
		})
	}
}
