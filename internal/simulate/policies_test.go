package simulate

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/trace"
)

// TestPolicyPointsPrior pins the reuse sweep on smallMachine over a
// trace that fits from the 40 KB size up: a cold Nehalem sweep gives
// the 1-way and 10- to 16-way points every policy and the 2-way point
// LRU, pseudo-LRU and Nehalem; an LRU sweep from it replays the 3- to
// 9-way sizes alone, in one group with no footprint probe (one source
// opened, nothing cloned); a Random sweep from that replays the 2-way
// size too, and the 2-way point kept is the one that holds for three
// policies. Each curve is the cold sweep's, bit for bit, and no prior
// is modified.
func TestPolicyPointsPrior(t *testing.T) {
	tr := CaptureTrace(randFactory(40<<10), 1, 0, 12000)
	var opened atomic.Int64
	open := func() (trace.BlockSource, error) {
		opened.Add(1)
		return trace.NewReplayer(tr, false), nil
	}
	cfgFor := func(p cache.PolicyKind) Config {
		return Config{Machine: machine.WithL3Policy(smallMachine(), p), Workers: 1}
	}
	cold := func(p cache.PolicyKind) *PolicyPoints {
		t.Helper()
		_, pp, err := SweepPolicies(context.Background(), cfgFor(p), open, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}
	three := cache.PolicyClass(cache.LRU, 2)
	prior := cold(cache.Nehalem)
	for i, h := range prior.Holds {
		want := cache.PolicySet(1 << cache.Nehalem)
		switch {
		case i == 0 || i >= 9:
			want = cache.AllPolicies
		case i == 1:
			want = three
		}
		if h != want {
			t.Errorf("the cold %d-way point holds for %b, want %b", i+1, h, want)
		}
	}
	for _, step := range []struct {
		policy   cache.PolicyKind
		replayed int
	}{{cache.LRU, 7}, {cache.Random, 8}} {
		want := cold(step.policy)
		keep := PolicyPoints{Curve: cloneCurve(&prior.Curve), Holds: slices.Clone(prior.Holds), basis: prior.basis}
		before, opens := SweepReplicaStats(), opened.Load()
		curve, next, err := SweepPolicies(context.Background(), cfgFor(step.policy), open, prior)
		if err != nil {
			t.Fatal(err)
		}
		after := SweepReplicaStats()
		if dr, dc := after.ReplicasReplayed-before.ReplicasReplayed, after.ReplicasCloned-before.ReplicasCloned; dr != int64(step.replayed) || dc != 0 {
			t.Errorf("%v: replayed %d sizes and cloned %d, want %d and none", step.policy, dr, dc, step.replayed)
		}
		if n := opened.Load() - opens; n != 1 {
			t.Errorf("%v: the reuse sweep opened %d sources, want 1 (one group, no probe)", step.policy, n)
		}
		if err := samePoints(want.Curve.Points, curve.Points); err != nil {
			t.Errorf("%v: the curve from a prior differs from a cold sweep's: %v", step.policy, err)
		}
		if !reflect.DeepEqual(*prior, keep) {
			t.Errorf("%v: the sweep modified its prior", step.policy)
		}
		if next.Holds[1] != three {
			t.Errorf("%v: the merged 2-way point holds for %b, want %b", step.policy, next.Holds[1], three)
		}
		prior = next
	}
}

// TestPolicyPointsPriorMismatch: a prior from a sweep that differed
// in more than the L3 policy and the width is an error, as is an
// engine other than fused; a prior that differs in the width only is
// not.
func TestPolicyPointsPriorMismatch(t *testing.T) {
	tr := CaptureTrace(randFactory(40<<10), 1, 0, 2000)
	open := func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
	base := Config{Machine: smallMachine(), Workers: 1}
	_, prior, err := SweepPolicies(context.Background(), base, open, nil)
	if err != nil {
		t.Fatal(err)
	}
	lru := base
	lru.Machine.L3.Policy = cache.LRU
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"another policy and width", func(c *Config) { c.Workers = 3 }, true},
		{"by sets", func(c *Config) { c.Mode = BySets }, false},
		{"cold", func(c *Config) { c.WarmPasses = -1 }, false},
		{"two warm passes", func(c *Config) { c.WarmPasses = 2 }, false},
		{"other sizes", func(c *Config) { c.Sizes = []int64{4 << 10, 8 << 10} }, false},
		{"a prefetcher", func(c *Config) { c.Machine.NewPrefetcher = machine.NehalemConfig().NewPrefetcher }, false},
		{"another L2", func(c *Config) { c.Machine.L2.Policy = cache.Nehalem }, false},
		{"engine persize", func(c *Config) { c.Engine = EnginePerSize }, false},
	} {
		cfg := lru
		tc.edit(&cfg)
		if _, _, err := SweepPolicies(context.Background(), cfg, open, prior); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want an error: %t", tc.name, err, !tc.ok)
		}
	}
}
