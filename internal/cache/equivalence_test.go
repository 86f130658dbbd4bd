package cache

import (
	"fmt"
	"testing"

	"cachepirate/internal/stats"
)

// This file replays randomized operation streams through the exported
// array-of-structs Reference model (reference.go — the layout the SoA
// kernel replaced) and the SoA implementation, asserting identical
// hit/miss/eviction sequences for every policy. Any divergence — a
// different victim, a dropped writeback, a replacement state drift —
// fails on the exact operation where it first appears.
// internal/conformance builds its fuzz- and property-based harness on
// the same oracle.

// equivConfigs returns the geometries the equivalence suite exercises
// for a policy: a typical power-of-two-sets shape and (when the policy
// allows non-power-of-two ways) a non-power-of-two-sets shape covering
// the modulo indexing path and an odd associativity. Pseudo-LRU instead
// adds the associativities that pick its other kernels: 8 ways (the
// last with a victim table, and the 8-entry tag scan), 16 (the tree
// descent and the 16-entry scan; machine.GenericLRUConfig's L2) and 32.
func equivConfigs(pol PolicyKind) []Config {
	cfgs := []Config{
		{Name: "equiv", Size: 16 << 10, Ways: 4, LineSize: 64, Policy: pol, Owners: 3},
	}
	if pol != PseudoLRU {
		// 24 sets of 3 ways: modulo set indexing, odd associativity.
		cfgs = append(cfgs, Config{Name: "equiv-odd", Size: 24 * 3 * 64, Ways: 3, LineSize: 64, Policy: pol, Owners: 3})
	} else {
		for _, ways := range []int{8, 16, 32} {
			cfgs = append(cfgs, Config{Name: fmt.Sprintf("equiv-%dway", ways), Size: 16 << 10, Ways: ways, LineSize: 64, Policy: pol, Owners: 3})
		}
	}
	return cfgs
}

// TestPolicyEquivalence replays a randomized operation stream — demand
// accesses, fused access+fill, plain and prefetch fills, invalidations,
// dirty marks — through the reference AoS model and the SoA kernel,
// asserting identical results on every operation and identical final
// statistics. This is the proof behind DESIGN.md §7's claim that the
// single-pass layout cannot change replacement decisions.
func TestPolicyEquivalence(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, PseudoLRU, Nehalem, Random} {
		for _, cfg := range equivConfigs(pol) {
			cfg := cfg
			t.Run(pol.String()+"/"+cfg.Name, func(t *testing.T) {
				runEquivalence(t, cfg)
			})
		}
	}
}

func runEquivalence(t *testing.T, cfg Config) {
	ref := MustNewReference(cfg)
	soa := MustNew(cfg)
	rng := stats.NewRNG(uint64(31 + cfg.Policy))
	// Address span ~4x capacity so sets fill and evict constantly.
	spanLines := uint64(4 * cfg.Size / cfg.LineSize)

	checkEv := func(op int, what string, re, se Evicted) {
		t.Helper()
		if re != se {
			t.Fatalf("op %d (%s): evicted diverged\nref: %+v\nsoa: %+v", op, what, re, se)
		}
	}

	const ops = 200_000
	for op := 0; op < ops; op++ {
		a := Addr(rng.Uint64n(spanLines) * uint64(cfg.LineSize))
		// Sometimes address a byte inside the line, not its base.
		if rng.Uint64n(4) == 0 {
			a += Addr(rng.Uint64n(uint64(cfg.LineSize)))
		}
		owner := Owner(rng.Uint64n(uint64(cfg.Owners)))
		write := rng.Uint64n(10) < 3

		switch rng.Uint64n(10) {
		case 0, 1, 2: // demand access, no fill (hierarchy probe style)
			rr := ref.Access(a, write, owner)
			sr := soa.Access(a, write, owner)
			if rr != sr {
				t.Fatalf("op %d: Access(%#x) diverged: ref %+v, soa %+v", op, a, rr, sr)
			}
		case 3, 4, 5: // fused demand access+fill (the L3 hot path)
			rr := ref.AccessFill(a, write, owner)
			sr := soa.AccessFill(a, write, owner)
			if rr.Hit != sr.Hit || rr.WasPrefetch != sr.WasPrefetch {
				t.Fatalf("op %d: AccessFill(%#x) diverged: ref %+v, soa %+v", op, a, rr, sr)
			}
			checkEv(op, "AccessFill", rr.Evicted, sr.Evicted)
		case 6: // plain fill, sometimes prefetch-marked or pre-dirtied
			pf := rng.Uint64n(3) == 0
			dirty := !pf && rng.Uint64n(3) == 0
			rr := ref.Fill(a, owner, pf, dirty)
			sr := soa.Fill(a, owner, pf, dirty)
			if rr.Hit != sr.Hit {
				t.Fatalf("op %d: Fill(%#x) hit diverged: ref %v, soa %v", op, a, rr.Hit, sr.Hit)
			}
			checkEv(op, "Fill", rr.Evicted, sr.Evicted)
		case 7: // deferred fill of a line observed absent
			if soa.Probe(a) {
				continue // contract: line must be absent
			}
			rr := ref.Fill(a, owner, false, write)
			sr := soa.FillMissed(a, owner, false, write)
			checkEv(op, "FillMissed", rr.Evicted, sr.Evicted)
		case 8: // back-invalidation
			re, rok := ref.Invalidate(a)
			se, sok := soa.Invalidate(a)
			if rok != sok {
				t.Fatalf("op %d: Invalidate(%#x) found diverged: ref %v, soa %v", op, a, rok, sok)
			}
			checkEv(op, "Invalidate", re, se)
		case 9: // writeback from an upper level
			if ref.MarkDirty(a) != soa.MarkDirty(a) {
				t.Fatalf("op %d: MarkDirty(%#x) diverged", op, a)
			}
		}
	}

	for ow := 0; ow < cfg.Owners; ow++ {
		if ref.Stats(Owner(ow)) != soa.Stats(Owner(ow)) {
			t.Errorf("owner %d stats diverged:\nref: %+v\nsoa: %+v",
				ow, ref.Stats(Owner(ow)), soa.Stats(Owner(ow)))
		}
	}
	// Full-residency sweep: both models must hold exactly the same lines.
	for l := uint64(0); l < spanLines; l++ {
		a := Addr(l * uint64(cfg.LineSize))
		if ref.Probe(a) != soa.Probe(a) {
			t.Fatalf("final residency of %#x diverged: ref %v, soa %v", a, ref.Probe(a), soa.Probe(a))
		}
	}
}

// TestEquivalenceAfterFlush checks the SoA reset paths (Flush and
// per-way clears) leave replacement state identical to the reference's.
func TestEquivalenceAfterFlush(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, PseudoLRU, Nehalem, Random} {
		cfg := Config{Name: "flush", Size: 8 << 10, Ways: 4, LineSize: 64, Policy: pol, Owners: 1}
		ref := MustNewReference(cfg)
		soa := MustNew(cfg)
		rng := stats.NewRNG(7)
		fill := func() {
			for i := 0; i < 2000; i++ {
				a := Addr(rng.Uint64n(1024) * 64)
				ref.Fill(a, 0, false, false)
				soa.Fill(a, 0, false, false)
			}
		}
		fill()
		ref.Flush()
		soa.Flush()
		fill()
		for l := uint64(0); l < 1024; l++ {
			if ref.Probe(Addr(l*64)) != soa.Probe(Addr(l*64)) {
				t.Fatalf("%s: post-flush residency of line %d diverged", pol, l)
			}
		}
	}
}
