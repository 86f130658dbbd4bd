package conformance

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/stats"
)

// policies lists every replacement policy under conformance.
var policies = []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random}

// TestKernelConformance replays generated streams — every policy, every
// geometry, every pattern including the adversarial single-set ones —
// through the SoA kernel and the Reference oracle, requiring zero
// divergence and all invariants.
func TestKernelConformance(t *testing.T) {
	nops := 60_000
	if testing.Short() {
		nops = 15_000
	}
	for _, pol := range policies {
		for _, cfg := range KernelConfigs(pol) {
			for _, pat := range Patterns() {
				cfg, pat := cfg, pat
				t.Run(pol.String()+"/"+cfg.Name+"/"+pat.String(), func(t *testing.T) {
					rng := stats.NewRNG(uint64(1000*int(pol) + 10*int(pat) + cfg.Ways))
					ops := GenOps(rng, cfg, pat, nops)
					if d := ReplayKernel(cfg, ops); d != nil {
						t.Fatalf("divergence:\n%s", d.Report(cfg, ops))
					}
				})
			}
		}
	}
}

// TestHierarchyConformance replays multicore demand streams through
// every bounded hierarchy shape, requiring the inclusivity,
// conservation and residency invariants to hold throughout.
func TestHierarchyConformance(t *testing.T) {
	nops := 40_000
	if testing.Short() {
		nops = 10_000
	}
	for i := range hierarchyShapes {
		cfg := hierarchyShapes[i]
		t.Run(cfg.L3.Policy.String(), func(t *testing.T) {
			ops := GenHOps(stats.NewRNG(uint64(77+i)), cfg, nops)
			if err := ReplayHierarchy(cfg, ops); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFusedHierarchyConformance replays a generated stream through a
// replica family of every hierarchy shape — by ways and by sets, of one
// and of seven replicas, under every L3 policy, prefetcher on and off —
// fused against one 1-core hierarchy per replica (ReplayFused).
func TestFusedHierarchyConformance(t *testing.T) {
	nops := 1500
	if testing.Short() {
		nops = 500
	}
	for shape := range hierarchyShapes {
		for fam := 0; fam < 0x80; fam++ {
			if reps := 1 + (fam>>1&7)%maxFusedReplicas; reps != 1 && reps != maxFusedReplicas {
				continue
			}
			f, _ := DecodeFused([]byte{byte(shape), byte(fam)})
			ops := GenFOps(stats.NewRNG(uint64(500+shape*0x80+fam)), f.Hier, nops)
			if err := ReplayFused(f, ops); err != nil {
				t.Fatalf("shape %d family %#02x (%d replicas): %v", shape, fam, len(f.L3), err)
			}
		}
	}
}

// TestFusedCodecRoundTrip pins EncodeFused as DecodeFused's inverse.
func TestFusedCodecRoundTrip(t *testing.T) {
	rng := stats.NewRNG(654)
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 2+rng.Uint64n(400))
		for i := range data {
			data[i] = byte(rng.Uint64n(256))
		}
		fam1, ops1 := DecodeFused(data)
		fam2, ops2 := DecodeFused(EncodeFused(data[0], data[1], ops1))
		if !reflect.DeepEqual(fam1.L3, fam2.L3) || (fam1.Hier.NewPrefetcher == nil) != (fam2.Hier.NewPrefetcher == nil) {
			t.Fatalf("family changed: %+v -> %+v", fam1.L3, fam2.L3)
		}
		if !reflect.DeepEqual(ops1, ops2) {
			t.Fatalf("ops changed: %+v -> %+v", ops1, ops2)
		}
	}
}

// TestHierarchyInjectedDivergenceCaught is the hierarchy oracle's
// self-test: one L3 fill the reference walk never sees must fail the
// replay, at or after the injection point, in every shape and both
// back-invalidation modes — and the same stream must pass without it.
func TestHierarchyInjectedDivergenceCaught(t *testing.T) {
	for i, cfg := range hierarchyShapes {
		ops := GenHOps(stats.NewRNG(uint64(9+i)), cfg, 2_000)
		for _, full := range []bool{true, false} {
			h := HierarchyHarness{Cfg: cfg, FullBackInval: full, InjectAt: -1}
			if err := h.Replay(ops); err != nil {
				t.Fatalf("shape %d full %v: clean stream failed: %v", i, full, err)
			}
			h.InjectAt = 1_000
			err := h.Replay(ops)
			if err == nil {
				t.Fatalf("shape %d full %v: injected divergence not caught", i, full)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("op %d ", h.InjectAt)) {
				t.Fatalf("shape %d full %v: divergence not reported on the injected op %d: %v", i, full, h.InjectAt, err)
			}
		}
	}
}

// TestCompareLinesSeesEveryField: the line-state comparison must flag a
// difference in any one of a line's owner, dirty bit, prefetch bit, tag
// or presence, with everything else (and every counter) equal — the
// divergences the per-op outcome and statistics checks cannot see.
func TestCompareLinesSeesEveryField(t *testing.T) {
	cfg := cache.Config{Name: "c", Size: 1 << 10, Ways: 4, LineSize: 64, Policy: cache.LRU, Owners: 2}
	const a, b = cache.Addr(0x1000), cache.Addr(0x2040)
	for _, tc := range []struct {
		name    string
		ref     func(*cache.Reference)
		soa     func(*cache.Cache)
		differs bool
	}{
		{"equal", func(r *cache.Reference) { r.Fill(b, 1, false, true) }, func(c *cache.Cache) { c.Fill(b, 1, false, true) }, false},
		{"owner", func(r *cache.Reference) { r.Fill(b, 0, false, false) }, func(c *cache.Cache) { c.Fill(b, 1, false, false) }, true},
		{"dirty", func(r *cache.Reference) { r.Fill(b, 0, false, false) }, func(c *cache.Cache) { c.Fill(b, 0, false, true) }, true},
		{"prefetch", func(r *cache.Reference) { r.Fill(b, 0, true, false) }, func(c *cache.Cache) { c.Fill(b, 0, false, false) }, true},
		{"tag", func(r *cache.Reference) { r.Fill(b, 0, false, false) }, func(c *cache.Cache) { c.Fill(b+0x400, 0, false, false) }, true},
		{"missing", func(r *cache.Reference) { r.Fill(b, 0, false, false) }, func(*cache.Cache) {}, true},
		{"extra", func(*cache.Reference) {}, func(c *cache.Cache) { c.Fill(b, 0, false, false) }, true},
	} {
		ref, soa := cache.MustNewReference(cfg), cache.MustNew(cfg)
		ref.Fill(a, 0, false, false)
		soa.Fill(a, 0, false, false)
		tc.ref(ref)
		tc.soa(soa)
		if err := compareLines(ref, soa); (err != nil) != tc.differs {
			t.Errorf("%s: compareLines = %v, want a difference: %v", tc.name, err, tc.differs)
		}
	}
}

// TestInjectedDivergenceCaught plants a bug (an extra fill the oracle
// never sees) into the SoA side and requires the harness to catch it
// for every policy — the self-test that proves the conformance layer
// can actually detect kernel regressions.
func TestInjectedDivergenceCaught(t *testing.T) {
	for _, pol := range policies {
		cfg := KernelConfigs(pol)[0]
		rng := stats.NewRNG(uint64(5 + int(pol)))
		ops := GenOps(rng, cfg, PatternHammer, 5_000)
		h := KernelHarness{Cfg: cfg, InjectAt: 1_000}
		d := h.Replay(ops)
		if d == nil {
			t.Fatalf("%s: injected divergence not caught", pol)
		}
		if d.OpIndex < h.InjectAt {
			t.Fatalf("%s: divergence reported before the injection point (%d < %d)", pol, d.OpIndex, h.InjectAt)
		}
	}
}

// TestMinimizeShrinksInjectedFailure minimizes an injected failure and
// requires the result to be both much smaller and still failing — the
// property behind `conformance replay`'s minimized reports.
func TestMinimizeShrinksInjectedFailure(t *testing.T) {
	cfg := KernelConfigs(cache.LRU)[0]
	ops := GenOps(stats.NewRNG(9), cfg, PatternHammer, 3_000)
	h := KernelHarness{Cfg: cfg, InjectAt: 0}
	fails := func(cand []Op) bool { return h.Replay(cand) != nil }
	if !fails(ops) {
		t.Fatal("injected failure did not reproduce on the full stream")
	}
	min := Minimize(ops, fails)
	if !fails(min) {
		t.Fatal("minimized stream no longer fails")
	}
	if len(min) > len(ops)/10 {
		t.Fatalf("minimization too weak: %d of %d ops left", len(min), len(ops))
	}
	// 1-minimality: removing any single op must lose the failure.
	for i := range min {
		cand := append(append([]Op(nil), min[:i]...), min[i+1:]...)
		if fails(cand) {
			t.Fatalf("not 1-minimal: op %d removable", i)
		}
	}
}

// TestKernelCodecRoundTrip: decoding arbitrary bytes, re-encoding the
// stream and decoding again must be a fixed point — the property that
// makes corpus files and replay files interchangeable.
func TestKernelCodecRoundTrip(t *testing.T) {
	rng := stats.NewRNG(123)
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 1+rng.Uint64n(600))
		for i := range data {
			data[i] = byte(rng.Uint64n(256))
		}
		cfg1, ops1 := DecodeKernel(data)
		enc := EncodeKernel(cfg1, ops1)
		cfg2, ops2 := DecodeKernel(enc)
		if cfg1.Policy != cfg2.Policy || cfg1.Size != cfg2.Size || cfg1.Ways != cfg2.Ways {
			t.Fatalf("config changed across round trip: %+v -> %+v", cfg1, cfg2)
		}
		if len(ops1) != len(ops2) {
			t.Fatalf("op count changed: %d -> %d", len(ops1), len(ops2))
		}
		for i := range ops1 {
			if ops1[i] != ops2[i] {
				t.Fatalf("op %d changed: %+v -> %+v", i, ops1[i], ops2[i])
			}
		}
		if enc2 := EncodeKernel(cfg2, ops2); !bytes.Equal(enc, enc2) {
			t.Fatal("encoding not stable")
		}
	}
}

// TestHierarchyCodecRoundTrip is the same fixed-point property for the
// hierarchy stream codec.
func TestHierarchyCodecRoundTrip(t *testing.T) {
	rng := stats.NewRNG(321)
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 1+rng.Uint64n(400))
		for i := range data {
			data[i] = byte(rng.Uint64n(256))
		}
		shape := int(data[0]) % len(hierarchyShapes)
		_, ops1 := DecodeHierarchy(data)
		enc := EncodeHierarchy(shape, ops1)
		_, ops2 := DecodeHierarchy(enc)
		if len(ops1) != len(ops2) {
			t.Fatalf("op count changed: %d -> %d", len(ops1), len(ops2))
		}
		for i := range ops1 {
			if ops1[i] != ops2[i] {
				t.Fatalf("op %d changed: %+v -> %+v", i, ops1[i], ops2[i])
			}
		}
	}
}

// TestCheckMonotonic covers the event-clock checker itself.
func TestCheckMonotonic(t *testing.T) {
	if err := CheckMonotonic([]float64{0, 1, 1, 2.5}); err != nil {
		t.Fatalf("monotone sequence rejected: %v", err)
	}
	if err := CheckMonotonic([]float64{0, 2, 1}); err == nil {
		t.Fatal("backwards clock accepted")
	}
}
