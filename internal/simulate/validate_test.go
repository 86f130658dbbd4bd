package simulate

import (
	"errors"
	"math"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
)

// TestConfigValidate pins Validate's verdict on one row per rule: nil,
// or a *ConfigError blaming exactly the fields at fault.
func TestConfigValidate(t *testing.T) {
	policy := func(p cache.PolicyKind) machine.Config {
		return machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), p)
	}
	way := machine.NehalemConfig().L3.Size / 16
	for _, tc := range []struct {
		name string
		cfg  Config
		want Field // 0: accepted
	}{
		{"zero value", Config{}, 0},
		{"unknown engine", Config{Engine: Engine(9)}, FieldEngine},
		{"unknown mode", Config{Mode: SweepMode(5)}, FieldMode},
		{"mattson nehalem", Config{Engine: EngineMattson}, FieldEngine | FieldPolicy},
		{"mattson lru", Config{Engine: EngineMattson, Machine: policy(cache.LRU)}, 0},
		{"mattson by sets", Config{Engine: EngineMattson, Machine: policy(cache.LRU), Mode: BySets}, FieldEngine | FieldMode},
		{"fused plru by ways", Config{Machine: policy(cache.PseudoLRU)}, FieldPolicy | FieldMode},
		{"persize plru by ways", Config{Engine: EnginePerSize, Machine: policy(cache.PseudoLRU)}, FieldPolicy | FieldMode},
		{"analytic plru by ways", Config{Engine: EngineAnalytic, Machine: policy(cache.PseudoLRU)}, 0},
		{"fused plru by sets", Config{Machine: policy(cache.PseudoLRU), Mode: BySets}, 0},
		{"plru by ways, powers of two", Config{Machine: policy(cache.PseudoLRU), Sizes: []int64{4 * way, 16 * way}}, 0},
		{"sample rate 1", Config{SampleRate: 1}, 0},
		{"sample rate 2", Config{SampleRate: 2}, FieldSampleRate},
		{"sample rate -1", Config{SampleRate: -1}, FieldSampleRate},
		{"sample rate NaN", Config{SampleRate: math.NaN()}, FieldSampleRate},
		{"sample rate on fused", Config{Engine: EngineFused, SampleRate: 1.5}, FieldSampleRate},
		{"sample size 2^30", Config{SampleSize: 1 << 30}, 0},
		{"sample size -5", Config{SampleSize: -5}, FieldSampleSize},
		{"sample size 2^30+1", Config{SampleSize: 1<<30 + 1}, FieldSampleSize},
		{"partial way", Config{Sizes: []int64{way, 5000}}, FieldSizes},
		{"zero ways", Config{Sizes: []int64{0}}, FieldSizes},
		{"indivisible sets", Config{Mode: BySets, Sizes: []int64{5000}}, FieldSizes},
		{"analytic partial way", Config{Engine: EngineAnalytic, Sizes: []int64{5000}}, FieldSizes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == 0 {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v, want a *ConfigError blaming %s", err, (&ConfigError{Fields: tc.want}).Explain(nil))
			}
			if ce.Fields != tc.want {
				t.Errorf("%v blames %s, want %s", err,
					(&ConfigError{Fields: ce.Fields}).Explain(nil), (&ConfigError{Fields: tc.want}).Explain(nil))
			}
		})
	}
}

// TestConfigErrorExplain pins how a front door renders a rejection
// under its own names for the fields.
func TestConfigErrorExplain(t *testing.T) {
	err := Config{Engine: EngineMattson, Machine: machine.WithL3Policy(machine.NehalemConfig(), cache.LRU), Mode: BySets}.Validate()
	flags := map[Field]string{FieldEngine: "-engine", FieldMode: "-mode"}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want a *ConfigError", err)
	}
	if got, want := ce.Explain(flags), "-engine and -mode do not match: mattson sweeps by ways only"; got != want {
		t.Errorf("Explain = %q, want %q", got, want)
	}
	if got, want := err.Error(), "simulate: Engine and Mode do not match: mattson sweeps by ways only"; got != want {
		t.Errorf("Error = %q, want %q", got, want)
	}
}

// TestValidateAllocs is the allocation gate on the curve server's hit
// path: every GET validates its spec, and the server's default spec (a
// fused Nehalem sweep by ways over the default 16-size grid) must cost
// no allocation.
func TestValidateAllocs(t *testing.T) {
	cfg := Config{Machine: machine.NehalemConfigNoPrefetch(), Workers: 1}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate allocates %v times per call; want 0", allocs)
	}
}
