package simulate

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cachepirate/internal/analysis"
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

// TestFusedInnerLoopAllocFree pins both fused record loops — a group's
// and the one-replica probe's — at zero allocations per block: the loop
// runs ~millions of times per sweep, so a single escaping value would
// dominate the profile.
func TestFusedInnerLoopAllocFree(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 2*fusedBlock)
	cfg := Config{Machine: smallMachine(), Workers: 1}.withDefaults()
	l3 := sweepL3(t, cfg)
	for _, reps := range [][]cache.Config{l3, l3[:1]} {
		e, err := newFusedEngine(cfg, reps, nil)
		if err != nil {
			t.Fatal(err)
		}
		blk := tr.Records[:fusedBlock]
		// Warm every replica once so steady-state fills are exercised too.
		if err := e.replayAll(context.Background(), blk); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if len(reps) == 1 {
				e.replayOne(blk)
			} else {
				e.replayRecords(blk)
			}
		})
		if allocs != 0 {
			t.Errorf("%d replicas: fused record loop allocates %v times per block; want 0", len(reps), allocs)
		}
	}
}

// sweepL3 returns the L3 config of every size of a defaulted sweep
// config, as sweepFusedStream derives them.
func sweepL3(t *testing.T, cfg Config) []cache.Config {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return l3Configs(shrunkMachines(cfg))
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
					pts, _, _, err := sweepFusedGrouped(context.Background(), cfg, src.open, l3, tc.budget)
					if err != nil {
						t.Fatalf("mode %d budget %d j=%d %s: %v", mode, tc.budget, workers, src.name, err)
					}
					for i, pt := range pts {
						if w := want.Points[i]; !samePointBits(pt, w) {
							t.Errorf("mode %d budget %d j=%d %s: point %d = %+v, oracle %+v", mode, tc.budget, workers, src.name, i, pt, w)
						}
					}
				}
			}
		}
	}
}

// TestSweepInvalidSizeErrorParity pins that every engine rejects an
// unsimulable size with the per-size oracle's error text, in both
// modes: a size that is not a whole number of ways, and one the cache
// geometry cannot express. The Mattson engine takes ByWays only. The
// L3 is LRU so that the Mattson engine reaches its size check at all;
// the policy plays no part in either size error.
func TestSweepInvalidSizeErrorParity(t *testing.T) {
	tr := CaptureTrace(randFactory(32<<10), 1, 0, 100)
	for _, tc := range []struct {
		name    string
		mode    SweepMode
		size    int64
		engines []Engine
	}{
		{"partial way", ByWays, 5000, []Engine{EngineFused, EngineMattson, EngineAnalytic}},
		{"indivisible sets", BySets, 5000, []Engine{EngineFused, EngineAnalytic}},
	} {
		cfg := lruSweepConfig(EnginePerSize)
		cfg.Mode, cfg.Sizes = tc.mode, []int64{16 << 10, tc.size}
		_, perErr := Sweep(cfg, tr)
		if perErr == nil {
			t.Fatalf("%s: invalid size accepted by persize", tc.name)
		}
		for _, eng := range tc.engines {
			cfg.Engine = eng
			_, err := Sweep(cfg, tr)
			if err == nil {
				t.Errorf("%s: invalid size accepted by %v", tc.name, eng)
			} else if err.Error() != perErr.Error() {
				t.Errorf("%s: %v engine says %q, persize says %q", tc.name, eng, err, perErr)
			}
		}
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestSerialSweepAllocatesOneGroup is the allocation gate on the
// backing-block reuse: a default 16-size sweep of the Nehalem machine
// holds 14 MB of line state in all, and a sweep after a warm-up sweep
// of the same shape must allocate none of it — the backings come from
// the pool, already grown. A per-sweep or per-group backing shows up
// here as megabytes. The test runs on one P: sync.Pool keeps one item
// per P that no other P can take, so a goroutine that moved P between
// the two sweeps could miss a pooled backing and allocate one.
func TestSerialSweepAllocatesOneGroup(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 2000)
	for _, workers := range []int{1, 2} {
		cfg := Config{Workers: workers}
		if _, err := Sweep(cfg, tr); err != nil { // warm the pool and lazily initialised state
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Sweep(cfg, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		const bound = 1 << 20
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("warmed default sweep at %d workers allocated %.2f MB, want under 1 MB", workers, float64(got)/(1<<20))
		}
	}
}

// TestServeSizeSweepAllocs is the allocation gate of a curve server
// miss: a default fused sweep of a 25k-record trace streamed from a
// file, after a warm-up sweep of the same shape, takes its line state
// from backingPool and each reader's buffers from the reader closed
// before it, and allocates under 0.25 MB in all — when every open made
// its own, the two file opens alone allocated over 1.5 MB. One P, as
// in TestSerialSweepAllocatesOneGroup.
func TestServeSizeSweepAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := CaptureTrace(workload.MustByName("omnetpp").New, 1, 0, 25_000)
	path := filepath.Join(t.TempDir(), "t.cptr2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() (trace.BlockSource, error) { return trace.OpenFile(path, trace.ReaderOptions{}) }
	cfg := Config{Workers: 1}
	if _, err := SweepStream(cfg, open); err != nil { // warm both pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SweepStream(cfg, open); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<18 {
		t.Errorf("warmed 25k-record sweep allocated %.2f MB, want under 0.25 MB", float64(got)/(1<<20))
	}
}

// TestConcurrentSweepsSharePool runs sweeps of every L3 policy, both
// modes and widths 1 to 3 side by side, twice over, so the fused
// engine's pooled backings pass between sweeps of every shape while
// other sweeps are running: each curve must equal, bit for bit, the
// same sweep run alone at Workers 1. One trace fits the larger sizes and
// one overflows them all, so probes both clone and fail.
func TestConcurrentSweepsSharePool(t *testing.T) {
	traces := []*trace.Trace{
		CaptureTrace(randFactory(40<<10), 1, 0, 4000),
		CaptureTrace(randFactory(96<<10), 2, 0, 4000),
	}
	type job struct {
		cfg  Config
		open func() (trace.BlockSource, error)
		want *analysis.Curve
	}
	var jobs []job
	for i, policy := range benchPolicies {
		for _, mode := range []SweepMode{ByWays, BySets} {
			mcfg := smallMachine()
			mcfg.L3.Policy = policy
			tr := traces[(i+int(mode))%2]
			cfg := Config{Machine: mcfg, Mode: mode, Sizes: benchSweepSizes(policy), Workers: 1}
			open := func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
			want, err := SweepStreamContext(context.Background(), cfg, open)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 1 + (i+2*int(mode))%3
			jobs = append(jobs, job{cfg, open, want})
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := SweepStreamContext(context.Background(), j.cfg, j.open)
				if err != nil {
					t.Errorf("%v %v j=%d: %v", j.cfg.Machine.L3.Policy, j.cfg.Mode, j.cfg.Workers, err)
					return
				}
				for i, w := range j.want.Points {
					if !samePointBits(got.Points[i], w) {
						t.Errorf("%v %v j=%d: point %d = %+v beside other sweeps, %+v alone", j.cfg.Machine.L3.Policy, j.cfg.Mode, j.cfg.Workers, i, got.Points[i], w)
					}
				}
			}()
		}
	}
	wg.Wait()
}

// samePointBits reports whether two points carry the same size and the
// same float64 bits in every metric.
func samePointBits(a, b analysis.Point) bool {
	return a.CacheBytes == b.CacheBytes &&
		math.Float64bits(a.CPI) == math.Float64bits(b.CPI) &&
		math.Float64bits(a.BandwidthGBs) == math.Float64bits(b.BandwidthGBs) &&
		math.Float64bits(a.FetchRatio) == math.Float64bits(b.FetchRatio) &&
		math.Float64bits(a.MissRatio) == math.Float64bits(b.MissRatio)
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
