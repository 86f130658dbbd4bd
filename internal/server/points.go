package server

import (
	"context"
	"fmt"
	"unsafe"

	"cachepirate/internal/analysis"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// pointStoreShare is the point store's budget as a fraction of the
// result cache's: Config.CacheBytes / pointStoreShare.
const pointStoreShare = 16

// pointBytes is what one stored point costs the point store's budget:
// the point, its policy set and its size in the sweep's basis.
const pointBytes = int64(unsafe.Sizeof(analysis.Point{})) + 1 + 8

// newPointStore builds the store of the PolicyPoints of fused sweeps,
// keyed by pointsKey, within budget bytes (<= 0: off, every lookup
// misses).
func newPointStore(budget int64) *lruCache[*simulate.PolicyPoints] {
	return newLRUCache(budget, func(pp *simulate.PolicyPoints) int64 {
		return int64(len(pp.Curve.Name)) + int64(len(pp.Holds))*pointBytes
	})
}

// pointsKey names what a fused curve depends on beside the policy: the
// trace, the sweep mode and the warm-up (the machine is the server's
// own, the same for all).
func (j JobSpec) pointsKey(hash string) string {
	return fmt.Sprintf("%s|%s|%t", hash, j.Mode, j.NoWarm)
}

// sweepFused draws a fused curve from the PolicyPoints stored under
// key, if any, through simulate.SweepPolicies: only the sizes whose
// stored point does not hold for cfg's policy replay. Each size's point
// is the one a full sweep gives it, so the curve is the full sweep's,
// bit for bit. The merged PolicyPoints go back under key for the next
// policy.
func (s *Server) sweepFused(ctx context.Context, key string, cfg simulate.Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	prior, _ := s.points.Get(key)
	curve, pp, err := simulate.SweepPolicies(ctx, cfg, open, prior)
	if err != nil {
		return nil, err
	}
	s.points.Put(key, pp)
	if prior != nil {
		reused := 0
		for _, h := range prior.Holds {
			if h.Has(cfg.Machine.L3.Policy) {
				reused++
			}
		}
		s.replicasReused.Add(int64(reused))
	}
	return curve, nil
}
