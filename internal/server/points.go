package server

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"cachepirate/internal/analysis"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// pointStoreShare is the point store's budget as a fraction of the
// result cache's: Config.CacheBytes / pointStoreShare.
const pointStoreShare = 16

// pointBytes is what one stored point and its mask entry cost the point
// store's budget.
const pointBytes = int64(unsafe.Sizeof(analysis.Point{})) + 1

// policyFree is what one fused sweep of a (trace, mode, warm-up) proved
// about the L3 policy: its curve, and which points of it hold under
// every policy (simulate.SweepPolicyFree).
type policyFree struct {
	curve analysis.Curve
	free  []bool
}

// newPointStore builds the store of policyFree entries, keyed by
// pointsKey, within budget bytes (<= 0: off, every lookup misses).
func newPointStore(budget int64) *lruCache[policyFree] {
	return newLRUCache(budget, func(pf policyFree) int64 {
		return int64(len(pf.curve.Name)) + int64(len(pf.free))*pointBytes
	})
}

// pointsKey names what a fused curve's policy-free points depend on:
// the trace, the sweep mode and the warm-up — everything of the spec
// but the policy (the machine is the server's own, the same for all).
func (j JobSpec) pointsKey(hash string) string {
	return fmt.Sprintf("%s|%s|%t", hash, j.Mode, j.NoWarm)
}

// sweepFused draws a fused curve, reusing the policy-free points of an
// earlier sweep of the same key under another policy: only the other
// sizes replay, through cfg.Sizes, and their points replace the stored
// ones. Each size's point is the one a full sweep gives it, so the
// merged curve is the full sweep's, bit for bit. With nothing stored
// the full sweep runs and its points are kept for the next policy.
func (s *Server) sweepFused(ctx context.Context, key string, cfg simulate.Config, open func() (trace.BlockSource, error)) (*analysis.Curve, error) {
	known, ok := s.points.Get(key)
	if !ok {
		curve, free, err := simulate.SweepPolicyFree(ctx, cfg, open)
		if err != nil {
			return nil, err
		}
		s.points.Put(key, policyFree{
			curve: analysis.Curve{Name: curve.Name, Points: slices.Clone(curve.Points)},
			free:  free,
		})
		return curve, nil
	}
	out := &analysis.Curve{Name: known.curve.Name, Points: slices.Clone(known.curve.Points)}
	var rest []int64
	for i, p := range out.Points {
		if !known.free[i] {
			rest = append(rest, p.CacheBytes)
		}
	}
	if len(rest) > 0 {
		cfg.Sizes = rest
		part, err := simulate.SweepStreamContext(ctx, cfg, open)
		if err != nil {
			return nil, err
		}
		// Both are in size order, so the replayed points fill the
		// gaps in turn.
		next := part.Points
		for i := range out.Points {
			if !known.free[i] {
				out.Points[i], next = next[0], next[1:]
			}
		}
	}
	s.replicasReused.Add(int64(len(out.Points) - len(rest)))
	return out, nil
}
