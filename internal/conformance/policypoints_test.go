package conformance

import (
	"context"
	"fmt"
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

// policyOrders is every order of the three policies the curve server
// sweeps in both modes.
var policyOrders = [][3]cache.PolicyKind{
	{cache.Nehalem, cache.LRU, cache.Random}, {cache.Nehalem, cache.Random, cache.LRU},
	{cache.LRU, cache.Nehalem, cache.Random}, {cache.LRU, cache.Random, cache.Nehalem},
	{cache.Random, cache.Nehalem, cache.LRU}, {cache.Random, cache.LRU, cache.Nehalem},
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// pointModes are the sweep modes and the L3 policies the curve server
// admits in each (pseudo-LRU only by sets, where every size has 16
// ways).
var pointModes = []struct {
	mode     simulate.SweepMode
	policies []cache.PolicyKind
}{
	{simulate.ByWays, []cache.PolicyKind{cache.Nehalem, cache.LRU, cache.Random}},
	{simulate.BySets, []cache.PolicyKind{cache.Nehalem, cache.LRU, cache.PseudoLRU, cache.Random}},
}

// pointMachines are the Nehalem machine with and without its
// prefetcher.
var pointMachines = []struct {
	name string
	mcfg machine.Config
}{
	{"no prefetch", machine.NehalemConfigNoPrefetch()},
	{"prefetch", machine.NehalemConfig()},
}

// TestPolicyPointsHold: every point of every simulate.PolicyPoints is
// Float64bits-equal to the same size's point of a cold sweep under each
// policy of its set that the mode admits, and a curve finished from a prior is
// the cold sweep's, for every order of Nehalem, LRU and Random. It runs
// over the curve server's four workloads and microrand at 25k and 100k
// records, by ways and by sets, with the prefetcher on and off, warm
// and cold. The negative controls are omnetpp's at 25k records by ways,
// warm, no prefetcher: its 3-way point differs between LRU and Nehalem
// and its 2-way point between Random and LRU, so a class that joined
// either pair would fail the equality check. Its policy sets are
// pinned there too. Under -short and the race detector, which checks
// the sweep's goroutines and not the classes, only the 25k half runs.
func TestPolicyPointsHold(t *testing.T) {
	lengths := []int{25_000, 100_000}
	if testing.Short() || raceDetector {
		lengths = lengths[:1]
	}
	for _, name := range []string{"omnetpp", "mcf", "libquantum", "sphinx3", "microrand"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			policyPointsHold(t, name, lengths)
		})
	}
}

// policyPointsHold is TestPolicyPointsHold for one workload.
func policyPointsHold(t *testing.T, name string, lengths []int) {
	for _, records := range lengths {
		tr := simulate.CaptureTrace(workload.MustByName(name).New, 1, 0, records)
		open := func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
		for _, m := range pointModes {
			for _, mc := range pointMachines {
				for _, warm := range []int{0, -1} {
					label := fmt.Sprintf("%s/%d/%v/%s/warm=%d", name, records, m.mode, mc.name, warm)
					sweep := func(pol cache.PolicyKind, prior *simulate.PolicyPoints) (*analysis.Curve, *simulate.PolicyPoints) {
						t.Helper()
						cfg := simulate.Config{Machine: machine.WithL3Policy(mc.mcfg, pol), Mode: m.mode, WarmPasses: warm, Workers: 2}
						curve, pp, err := simulate.SweepPolicies(context.Background(), cfg, open, prior)
						if err != nil {
							t.Fatalf("%s, %v: %v", label, pol, err)
						}
						return curve, pp
					}
					curves := map[cache.PolicyKind]*analysis.Curve{}
					cold := map[cache.PolicyKind]*simulate.PolicyPoints{}
					for _, pol := range m.policies {
						curves[pol], cold[pol] = sweep(pol, nil)
					}
					holds := func(how string, pp *simulate.PolicyPoints) {
						t.Helper()
						for i, h := range pp.Holds {
							for _, q := range m.policies {
								if !h.Has(q) {
									continue
								}
								if err := samePoint(curves[q].Points[i], pp.Curve.Points[i]); err != nil {
									t.Errorf("%s, %s: point %d holds for %v, but a cold %v sweep differs: %v", label, how, i, q, q, err)
								}
							}
						}
					}
					for _, pol := range m.policies {
						holds("cold "+pol.String(), cold[pol])
					}
					if records > 25_000 {
						continue
					}
					for _, order := range policyOrders {
						pp := cold[order[0]]
						for _, pol := range order[1:] {
							how := fmt.Sprintf("%v then %v", order, pol)
							var curve *analysis.Curve
							curve, pp = sweep(pol, pp)
							if err := CurvesIdentical(curves[pol], curve); err != nil {
								t.Errorf("%s, %s: the curve from a prior differs from a cold sweep's: %v", label, how, err)
							}
							holds(how, pp)
						}
					}
					if name != "omnetpp" || records != 25_000 || m.mode != simulate.ByWays || mc.mcfg.NewPrefetcher != nil || warm != 0 {
						continue
					}
					lru := cache.PolicyClass(cache.LRU, 2)
					for k, h := range cold[cache.Nehalem].Holds {
						want := cache.AllPolicies
						switch k {
						case 1:
							want = lru
						case 2, 3:
							want = 1 << cache.Nehalem
						}
						if h != want {
							t.Errorf("omnetpp by ways: the cold Nehalem %d-way point holds for %04b, want %04b", k+1, h, want)
						}
					}
					if samePoint(curves[cache.LRU].Points[2], curves[cache.Nehalem].Points[2]) == nil {
						t.Error("omnetpp by ways: the 3-way point is the same under LRU and Nehalem, so it no longer tests the classes")
					}
					if samePoint(curves[cache.Random].Points[1], curves[cache.LRU].Points[1]) == nil {
						t.Error("omnetpp by ways: the 2-way point is the same under Random and LRU, so it no longer tests the classes")
					}
				}
			}
		}
	}
}
