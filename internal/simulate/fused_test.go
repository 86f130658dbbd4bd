package simulate

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// benchSweepConfig is the BenchmarkSweepSerial workload (60k records,
// 16 default sizes) with the engine pinned.
func benchSweepConfig(policy cache.PolicyKind, engine Engine) Config {
	mcfg := smallMachine()
	mcfg.L3.Policy = policy
	return Config{Machine: mcfg, Workers: 1, Engine: engine}
}

func benchSweepSizes(policy cache.PolicyKind) []int64 {
	if policy != cache.PseudoLRU {
		return nil // default: one size per way, 16 sizes
	}
	// Pseudo-LRU needs power-of-two ways.
	way := int64(4 << 10)
	return []int64{1 * way, 2 * way, 4 * way, 8 * way, 16 * way}
}

var benchPolicies = []cache.PolicyKind{cache.Nehalem, cache.LRU, cache.PseudoLRU, cache.Random}

// benchSweepEngine runs the BenchmarkSweepSerial workload on one
// engine: per L3 policy by ways, and once by sets. Then the footprint
// probe's two outcomes, on the default 16-size sweep of the Nehalem
// machine over 200k random accesses: "fits" (256 KB, one line to every
// other set: the fused engine replays the largest size and clones 15
// points) and "overflows" (32 MB, 24 lines to a set: the probe evicts,
// every size replays, and the probe has cost one group's decode).
func benchSweepEngine(b *testing.B, engine Engine) {
	run := func(name string, cfg Config, tr *trace.Trace) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(cfg, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 60000)
	for _, policy := range benchPolicies {
		cfg := benchSweepConfig(policy, engine)
		cfg.Sizes = benchSweepSizes(policy)
		run(policy.String(), cfg, tr)
	}
	cfg := benchSweepConfig(cache.Nehalem, engine)
	cfg.Mode = BySets
	run("nehalem-bysets", cfg, tr)
	for _, tc := range []struct {
		name string
		span int64
	}{{"fits", 256 << 10}, {"overflows", 32 << 20}} {
		run(tc.name, Config{Workers: 1, Engine: engine}, CaptureTrace(randFactory(tc.span), 1, 0, 200_000))
	}
}

// BenchmarkSweepFused measures the fused engine on the
// BenchmarkSweepSerial workload.
func BenchmarkSweepFused(b *testing.B) { benchSweepEngine(b, EngineFused) }

// BenchmarkSweepPerSize measures the historical one-machine-per-size
// path on the same workload.
func BenchmarkSweepPerSize(b *testing.B) { benchSweepEngine(b, EnginePerSize) }

// TestFusedInnerLoopAllocFree pins the fused size-inner loop at zero
// allocations per block: the loop runs ~millions of times per sweep,
// so a single escaping value would dominate the profile.
func TestFusedInnerLoopAllocFree(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 2*fusedBlock)
	cfg := Config{Machine: smallMachine(), Workers: 1}.withDefaults()
	e, err := newFusedEngine(cfg, sweepL3(t, cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := tr.Records[:fusedBlock]
	// Warm every replica once so steady-state fills are exercised too.
	for k := range e.clk {
		e.replayBlock(blk, k)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for k := range e.clk {
			e.replayBlock(blk, k)
		}
	})
	if allocs != 0 {
		t.Errorf("fused inner loop allocates %v times per block sweep; want 0", allocs)
	}
}

// sweepL3 returns the L3 config of every size of a defaulted sweep
// config, as sweepFusedStream derives them.
func sweepL3(t *testing.T, cfg Config) []cache.Config {
	t.Helper()
	mcfgs, err := shrunkMachines(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l3Configs(mcfgs)
}

// groupLens returns the replica count of each group.
func groupLens(groups [][]int) []int {
	lens := make([]int, len(groups))
	for g := range groups {
		lens[g] = len(groups[g])
	}
	return lens
}

// TestReplicaGroups pins the grouping rule: the largest size first and
// alone (the footprint probe), then consecutive replicas, summed L3
// lines within the budget and at most ceil(others/workers) replicas, an
// oversized replica alone.
func TestReplicaGroups(t *testing.T) {
	cfg := Config{Machine: smallMachine()}.withDefaults() // 16 sizes of 64..1024 lines
	l3 := sweepL3(t, cfg)
	for _, tc := range []struct {
		budget, workers int
		want            []int
	}{
		{1, 1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}, // every replica over budget
		{2048, 1, []int{1, 7, 3, 2, 2, 1}},                            // twice the full L3: the production ratio
		{2048, 2, []int{1, 7, 3, 2, 2, 1}},
		{2048, 4, []int{1, 4, 4, 3, 2, 2}},
		{1 << 30, 1, []int{1, 15}},
		{1 << 30, 2, []int{1, 8, 7}}, // a sweep that fits one group still splits across workers
		{1 << 30, 3, []int{1, 5, 5, 5}},
		{1 << 30, 16, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	} {
		if got := groupLens(replicaGroups(l3, tc.budget, tc.workers)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("replicaGroups(budget %d, workers %d) has group sizes %v, want %v", tc.budget, tc.workers, got, tc.want)
		}
	}
	nehalem := sweepL3(t, Config{}.withDefaults())
	for _, tc := range []struct {
		workers int
		want    []int
	}{
		{1, []int{1, 7, 3, 2, 2, 1}},
		{2, []int{1, 7, 3, 2, 2, 1}},
		{4, []int{1, 4, 4, 3, 2, 2}},
	} {
		if got := groupLens(replicaGroups(nehalem, fusedGroupLines, tc.workers)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("default Nehalem sweep at %d workers has group sizes %v, want %v", tc.workers, got, tc.want)
		}
	}
	// The probe is the largest size wherever it stands, the first of
	// equals, and the others keep their sweep order around it.
	cfg.Sizes = []int64{8 << 10, 64 << 10, 4 << 10, 64 << 10, 16 << 10}
	want := [][]int{{1}, {0, 2}, {3, 4}}
	if got := replicaGroups(sweepL3(t, cfg), 1<<30, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("unsorted sizes %v group as %v, want %v", cfg.Sizes, got, want)
	}
	if got := replicaGroups(l3[:1], 2048, 1); !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Errorf("a one-size sweep groups as %v, want the probe alone", got)
	}
}

// TestFusedGroupBoundaries pins that the group budget and the sweep
// width are wall-clock choices only: 1 replica per group, 2-3 per group
// and one group beside the probe, replayed 1, 2, 3 or 8 at a time, all produce the
// per-size oracle's curve bit for bit, in both sweep modes, from an
// in-memory replayer and from a streamed file (each group opens its own
// source).
func TestFusedGroupBoundaries(t *testing.T) {
	tr := CaptureTrace(randFactory(96<<10), 1, 0, 6000)
	path := filepath.Join(t.TempDir(), "t.cptr2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteV2Frames(f, 512); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		open func() (trace.BlockSource, error)
	}{
		{"memory", func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }},
		{"file", func() (trace.BlockSource, error) { return trace.OpenFile(path, trace.ReaderOptions{}) }},
	}
	for _, mode := range []SweepMode{ByWays, BySets} {
		// The 16 default sizes of 4..64 KB: 64..1024 lines, and set
		// counts that are mostly not powers of two in BySets.
		cfg := Config{Machine: smallMachine(), Mode: mode, Workers: 1}
		oracle := cfg
		oracle.Engine = EnginePerSize
		want, err := Sweep(oracle, tr)
		if err != nil {
			t.Fatal(err)
		}
		cfg = cfg.withDefaults()
		l3 := sweepL3(t, cfg)
		for _, tc := range []struct{ budget, groups int }{{1, 16}, {2048, 6}, {1 << 30, 2}} {
			if got := len(replicaGroups(l3, tc.budget, 1)); got != tc.groups {
				t.Fatalf("mode %d budget %d: %d groups, want %d", mode, tc.budget, got, tc.groups)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				cfg.Workers = workers
				for _, src := range sources {
					pts, _, err := sweepFusedGrouped(context.Background(), cfg, src.open, l3, tc.budget)
					if err != nil {
						t.Fatalf("mode %d budget %d j=%d %s: %v", mode, tc.budget, workers, src.name, err)
					}
					for i, pt := range pts {
						if w := want.Points[i]; pt.CacheBytes != w.CacheBytes ||
							math.Float64bits(pt.CPI) != math.Float64bits(w.CPI) ||
							math.Float64bits(pt.BandwidthGBs) != math.Float64bits(w.BandwidthGBs) ||
							math.Float64bits(pt.FetchRatio) != math.Float64bits(w.FetchRatio) ||
							math.Float64bits(pt.MissRatio) != math.Float64bits(w.MissRatio) {
							t.Errorf("mode %d budget %d j=%d %s: point %d = %+v, oracle %+v", mode, tc.budget, workers, src.name, i, pt, w)
						}
					}
				}
			}
		}
	}
}

// TestSweepInvalidSizeErrorParity pins that the fused engine rejects
// an unsimulable size with the per-size oracle's error text, in both
// modes: a size that is not a whole number of ways, and one the cache
// geometry cannot express.
func TestSweepInvalidSizeErrorParity(t *testing.T) {
	tr := CaptureTrace(randFactory(32<<10), 1, 0, 100)
	for _, tc := range []struct {
		name string
		mode SweepMode
		size int64
	}{
		{"partial way", ByWays, 5000},
		{"indivisible sets", BySets, 5000},
	} {
		cfg := Config{Machine: smallMachine(), Mode: tc.mode, Sizes: []int64{16 << 10, tc.size}, Workers: 1}
		_, autoErr := Sweep(cfg, tr)
		cfg.Engine = EnginePerSize
		_, perErr := Sweep(cfg, tr)
		if autoErr == nil || perErr == nil {
			t.Fatalf("%s: invalid size accepted (auto %v, persize %v)", tc.name, autoErr, perErr)
		}
		if autoErr.Error() != perErr.Error() {
			t.Errorf("%s: auto engine says %q, persize says %q", tc.name, autoErr, perErr)
		}
	}
}

// TestSerialSweepAllocatesOneGroup is the allocation gate on the
// backing-block reuse: a default 16-size sweep of the Nehalem machine
// holds 23 MB of line state in all, but only the largest group's (about
// 6 MB) may be allocated per worker — a regrown or per-group backing
// shows up here as 12 or 28 MB at one worker.
func TestSerialSweepAllocatesOneGroup(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 2000)
	for _, workers := range []int{1, 2} {
		cfg := Config{Workers: workers}
		if _, err := Sweep(cfg, tr); err != nil { // warm lazily initialised state
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Sweep(cfg, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bound := uint64(workers) * 10 << 20
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("default sweep at %d workers allocated %.1f MB, want under %d MB", workers, float64(got)/(1<<20), bound>>20)
		}
	}
}

// TestNoWarmMeasuresColdCache pins the WarmPasses fix: NoWarm must
// measure the very first replay (cold caches see compulsory misses),
// while the default warms the hierarchy first.
func TestNoWarmMeasuresColdCache(t *testing.T) {
	// A sequential trace that fits the L3: warmed, it hits every time;
	// cold, every line is a compulsory miss.
	tr := CaptureTrace(func(seed uint64) workload.Generator {
		return workload.NewSequential(workload.SequentialConfig{Name: "s", Span: 16 << 10, NInstr: 2})
	}, 1, 0, 4000)
	size := []int64{64 << 10}
	warm, err := Sweep(Config{Machine: smallMachine(), Sizes: size}, tr)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Sweep(Config{Machine: smallMachine(), Sizes: size, NoWarm: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Points[0].FetchRatio <= warm.Points[0].FetchRatio {
		t.Errorf("cold fetch ratio %g not above warm %g — NoWarm did not skip warm-up",
			cold.Points[0].FetchRatio, warm.Points[0].FetchRatio)
	}
	// Both engines must agree on the cold measurement too (the matrix
	// test covers this broadly; this is the targeted regression).
	coldPer, err := Sweep(Config{Machine: smallMachine(), Sizes: size, NoWarm: true, Engine: EnginePerSize}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Points[0] != coldPer.Points[0] {
		t.Errorf("cold point differs across engines: %+v vs %+v", cold.Points[0], coldPer.Points[0])
	}
}

// TestWarmPassesExplicitValues pins withDefaults' WarmPasses handling:
// zero means the default single warm pass, negatives clamp to none.
func TestWarmPassesExplicitValues(t *testing.T) {
	if got := (Config{}).withDefaults().WarmPasses; got != 1 {
		t.Errorf("zero WarmPasses -> %d, want 1", got)
	}
	if got := (Config{WarmPasses: 3}).withDefaults().WarmPasses; got != 3 {
		t.Errorf("WarmPasses 3 -> %d", got)
	}
	if got := (Config{NoWarm: true}).withDefaults().WarmPasses; got != 0 {
		t.Errorf("NoWarm -> %d warm passes, want 0", got)
	}
	if got := (Config{NoWarm: true, WarmPasses: 5}).withDefaults().WarmPasses; got != 0 {
		t.Errorf("NoWarm with WarmPasses 5 -> %d, want 0", got)
	}
	if got := (Config{WarmPasses: -1}).withDefaults().WarmPasses; got != 0 {
		t.Errorf("WarmPasses -1 -> %d, want 0", got)
	}
}
