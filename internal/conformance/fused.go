package conformance

import (
	"fmt"

	"cachepirate/internal/cache"
	"cachepirate/internal/prefetch"
	"cachepirate/internal/stats"
)

// FOp is one demand access of a fused-hierarchy conformance stream.
type FOp struct {
	Addr  cache.Addr
	Write bool
}

// FusedFamily is a fused-hierarchy conformance case: the private levels
// and prefetcher every replica shares (Cores and L3 are ignored), and
// one L3 per replica.
type FusedFamily struct {
	Hier cache.HierarchyConfig
	L3   []cache.Config
}

// maxFusedReplicas bounds a decoded family at the replica count of a
// mid-sized sweep group.
const maxFusedReplicas = 7

// fusedOpBytes is the encoded size of one fused-stream op.
const fusedOpBytes = 3

// DecodeFused derives a replica family and a demand stream from
// arbitrary bytes, total and deterministic like DecodeHierarchy. Byte 0
// picks the hierarchy shape whose private levels and L3 geometry the
// family starts from; byte 1 picks the family: bit 0 shrinks the L3 by
// sets instead of by ways, bits 1-3 the replica count (1 to
// maxFusedReplicas), bits 4-5 the L3 policy, and bit 6 toggles the
// prefetcher (a shape with one loses it, one without gains a next-line
// prefetcher). Each later 3 bytes are one op; addresses wrap at 8x the
// largest L3.
func DecodeFused(data []byte) (FusedFamily, []FOp) {
	var shape, fam byte
	if len(data) > 0 {
		shape = data[0]
	}
	if len(data) > 1 {
		fam = data[1]
	}
	base := hierarchyShapes[int(shape)%len(hierarchyShapes)]
	f := FusedFamily{Hier: base}
	if fam&0x40 != 0 {
		if base.NewPrefetcher != nil {
			f.Hier.NewPrefetcher = nil
		} else {
			f.Hier.NewPrefetcher = func() prefetch.Prefetcher { return prefetch.NewNextLine() }
		}
	}
	policy := cache.PolicyKind(fam >> 4 & 3)
	reps := 1 + int(fam>>1&7)%maxFusedReplicas
	sets, ways := int(base.L3.Sets()), base.L3.Ways
	for k := 0; k < reps; k++ {
		l3 := base.L3
		l3.Policy = policy
		l3.Owners = 1
		s, w := sets, ways
		if fam&1 != 0 {
			// By sets: the later replicas keep a shrinking share of the
			// sets, at any count (a modulo index past a power of two).
			s = max(1, sets*(reps-k)/reps)
		} else {
			w = max(1, ways*(reps-k)/reps)
		}
		if policy == cache.PseudoLRU {
			for w&(w-1) != 0 {
				w &= w - 1 // down to a power of two
			}
		}
		l3.Ways = w
		l3.Size = int64(s*w) * l3.LineSize
		f.L3 = append(f.L3, l3)
	}
	var body []byte
	if len(data) > 2 {
		body = data[2:]
	}
	span := uint64(8 * base.L3.Size)
	ops := make([]FOp, 0, len(body)/fusedOpBytes)
	for i := 0; i+fusedOpBytes <= len(body); i += fusedOpBytes {
		k, lo, hi := body[i], body[i+1], body[i+2]
		ops = append(ops, FOp{
			Addr:  cache.Addr((uint64(hi)<<8 | uint64(lo)) << 4 % span),
			Write: k&0x40 != 0,
		})
	}
	return f, ops
}

// EncodeFused is the inverse of DecodeFused for in-range streams; used
// to write fuzz seed corpora.
func EncodeFused(shape, family byte, ops []FOp) []byte {
	out := make([]byte, 0, 2+len(ops)*fusedOpBytes)
	out = append(out, shape, family)
	for _, op := range ops {
		var k byte
		if op.Write {
			k |= 0x40
		}
		slot := uint64(op.Addr) >> 4
		out = append(out, k, byte(slot), byte(slot>>8))
	}
	return out
}

// GenFOps produces a deterministic n-op stream over cfg's address
// space, reusing GenHOps's mix of sweeps, set hammering and recent-line
// reuse with the core folded away.
func GenFOps(rng *stats.RNG, cfg cache.HierarchyConfig, n int) []FOp {
	hops := GenHOps(rng, cfg, n)
	ops := make([]FOp, len(hops))
	for i, op := range hops {
		ops[i] = FOp{Addr: op.Addr, Write: op.Write}
	}
	return ops
}

// ReplayFused replays ops through a cache.FusedHierarchy of fam and,
// for each replica, a 1-core cache.Hierarchy with that replica's L3 —
// the stand-alone hierarchy the fused sweep's bit-identity rests on.
// The fused side is driven as the sweep engine drives it: each op is
// decoded once (FusedHierarchy.Line) and fed to every replica before
// the next op. After every access the two outcome words and the two
// L3s' counters must be equal; at the end every L3 must hold the same
// lines in the same places and pass CheckCache.
func ReplayFused(fam FusedFamily, ops []FOp) error {
	fh, err := cache.NewFusedHierarchyL3(fam.Hier, fam.L3, nil)
	if err != nil {
		return fmt.Errorf("conformance: invalid fused family: %w", err)
	}
	solo := make([]*cache.Hierarchy, len(fam.L3))
	for k, l3 := range fam.L3 {
		hc := fam.Hier
		hc.Cores = 1
		hc.L3 = l3
		if solo[k], err = cache.NewHierarchy(hc); err != nil {
			return fmt.Errorf("conformance: invalid fused family: %w", err)
		}
	}
	for i, op := range ops {
		ln := fh.Line(op.Addr)
		for k, h := range solo {
			got := fh.AccessPacked(k, ln, op.Write)
			want := h.AccessPacked(0, op.Addr, op.Write)
			if got != want {
				return fmt.Errorf("conformance: op %d %+v, replica %d: outcome %+v, hierarchy %+v",
					i, op, k, got.Outcome(fam.Hier.L3.LineSize), want.Outcome(fam.Hier.L3.LineSize))
			}
			if g, w := fh.L3(k).Stats(0), h.L3().Stats(0); g != w {
				return fmt.Errorf("conformance: op %d %+v, replica %d: L3 stats %+v, hierarchy %+v", i, op, k, g, w)
			}
		}
	}
	for k, h := range solo {
		if err := compareLines(h.L3(), fh.L3(k)); err != nil {
			return fmt.Errorf("conformance: replica %d: %w", k, err)
		}
		if err := CheckCache(fh.L3(k)); err != nil {
			return fmt.Errorf("conformance: replica %d: %w", k, err)
		}
	}
	return nil
}
