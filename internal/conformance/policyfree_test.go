package conformance

import (
	"context"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// samePoint is CurvesIdentical on one point: Float64bits equality of
// every field.
func samePoint(want, got analysis.Point) error {
	return CurvesIdentical(&analysis.Curve{Points: []analysis.Point{want}}, &analysis.Curve{Points: []analysis.Point{got}})
}

// TestPolicyFreeMask: every point simulate.SweepPolicyFree flags as
// policy-free is Float64bits-equal to the same size's point under every
// other policy the curve server serves in that mode (pseudo-LRU only by
// sets, where every size has 16 ways), over the server's four workloads
// and microrand at the server's 25k records, by ways and by sets; and
// the mask itself does not depend on the policy. The negative control
// is omnetpp by ways: its 2- to 4-way replicas evict with more than one
// way, and their points differ between policies, so a mask that flagged
// them would fail the equality check. The mask is pinned there too: the
// 1-way point and every size from 5 ways up.
func TestPolicyFreeMask(t *testing.T) {
	policies := []struct {
		mode     simulate.SweepMode
		policies []cache.PolicyKind
	}{
		{simulate.ByWays, []cache.PolicyKind{cache.Nehalem, cache.LRU, cache.Random}},
		{simulate.BySets, []cache.PolicyKind{cache.Nehalem, cache.LRU, cache.PseudoLRU, cache.Random}},
	}
	for _, name := range []string{"omnetpp", "mcf", "libquantum", "sphinx3", "microrand"} {
		tr := simulate.CaptureTrace(workload.MustByName(name).New, 1, 0, 25_000)
		open := func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
		for _, m := range policies {
			curves := make([]*analysis.Curve, len(m.policies))
			masks := make([][]bool, len(m.policies))
			for i, pol := range m.policies {
				cfg := simulate.Config{Machine: machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), pol), Mode: m.mode, Workers: 2}
				var err error
				if curves[i], masks[i], err = simulate.SweepPolicyFree(context.Background(), cfg, open); err != nil {
					t.Fatalf("%s by %v, %v: %v", name, m.mode, pol, err)
				}
			}
			for i, pol := range m.policies {
				for k, free := range masks[i] {
					if free != masks[0][k] {
						t.Errorf("%s by %v: point %d is policy-free under %v but not under %v", name, m.mode, k, pol, m.policies[0])
					}
					if !free {
						continue
					}
					for j, other := range m.policies {
						if err := samePoint(curves[j].Points[k], curves[i].Points[k]); err != nil {
							t.Errorf("%s by %v: point %d is flagged policy-free under %v, but %v differs: %v", name, m.mode, k, pol, other, err)
						}
					}
				}
			}
			if name != "omnetpp" || m.mode != simulate.ByWays {
				continue
			}
			for k, free := range masks[0] {
				if want := k == 0 || k >= 4; free != want {
					t.Errorf("omnetpp by ways: the %d-way point is flagged %t, want %t", k+1, free, want)
				}
			}
			for k := 1; k <= 3; k++ {
				differs := false
				for j := 1; j < len(m.policies); j++ {
					differs = differs || samePoint(curves[0].Points[k], curves[j].Points[k]) != nil
				}
				if !differs {
					t.Errorf("omnetpp by ways: the %d-way point is the same under every policy, so it no longer tests the mask", k+1)
				}
			}
		}
	}
}
