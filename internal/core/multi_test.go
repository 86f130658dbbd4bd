package core

import (
	"reflect"
	"strings"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/workload"
)

func TestProfileMultiBasic(t *testing.T) {
	cfg := testConfig(4)
	cfg.Threads = 1
	curve, rep, err := ProfileMulti(cfg, []int{0, 1}, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != len(cfg.Sizes) {
		t.Fatalf("points = %d", len(curve.Points))
	}
	if len(rep.RankCPIs) != 2 {
		t.Fatalf("rank CPIs = %v", rep.RankCPIs)
	}
	for i, c := range rep.RankCPIs {
		if c <= 0 {
			t.Errorf("rank %d CPI = %g", i, c)
		}
	}
	// Two identical ranks should be balanced.
	r := rep.RankCPIs[0] / rep.RankCPIs[1]
	if r < 0.8 || r > 1.25 {
		t.Errorf("ranks unbalanced: CPIs %v", rep.RankCPIs)
	}
	// Aggregate fetch ratio falls with more cache, as for one rank.
	small, large := curve.Points[0], curve.Points[len(curve.Points)-1]
	if small.FetchRatio <= large.FetchRatio {
		t.Errorf("multi-rank fetch ratio not decreasing: %g vs %g",
			small.FetchRatio, large.FetchRatio)
	}
}

// TestProfileMultiPirateTakesOtherCores: ranks 0 and 2 leave the
// Pirate cores 1 and 3.
func TestProfileMultiPirateTakesOtherCores(t *testing.T) {
	_, tgt, err := resolve(testConfig(4), []int{0, 2}, eachCore(mustNotBuild(t)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tgt.pirate, []int{1, 3}) {
		t.Errorf("pirate cores = %v, want [1 3]", tgt.pirate)
	}
	cfg := testConfig(4)
	cfg.Threads = 2
	cfg.Sizes = cfg.Sizes[:2]
	cfg.Cycles = 1
	_, rep, err := ProfileMulti(cfg, []int{0, 2}, randTarget(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThreadsUsed != 2 {
		t.Errorf("threads = %d", rep.ThreadsUsed)
	}
}

func TestProfileMultiValidation(t *testing.T) {
	cfg := testConfig(2)
	if _, _, err := ProfileMulti(cfg, nil, randTarget(1024)); err == nil {
		t.Error("no target cores accepted")
	}
	// All cores are ranks: nothing left for the pirate.
	if _, _, err := ProfileMulti(cfg, []int{0, 1}, mustNotBuild(t)); err == nil ||
		!strings.Contains(err.Error(), "no cores left for the pirate") {
		t.Errorf("all cores ranks: err = %v", err)
	}
	if _, _, err := ProfileMulti(cfg, []int{0, 2}, mustNotBuild(t)); err == nil {
		t.Error("rank on a core the machine lacks accepted")
	}
	if _, _, err := ProfileMulti(testConfig(4), []int{1, 1}, mustNotBuild(t)); err == nil {
		t.Error("a core listed as two ranks accepted")
	}
}

// TestScanThreadsManyRanks: the thread-count test on ranks 0 and 1
// measures the Pirate's two cores, also from a config that gives
// nothing but the machine (its ranks are seeded 0 and 137).
func TestScanThreadsManyRanks(t *testing.T) {
	for _, cfg := range []Config{testConfig(4), {Machine: testMachine(4)}} {
		cfg, tgt, err := resolve(cfg, []int{0, 1}, eachCore(randTarget(32<<10)))
		if err != nil {
			t.Fatal(err)
		}
		threads, cpis, err := scanThreads(cfg, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if threads < 1 || threads > 2 || len(cpis) == 0 || cpis[0] <= 0 {
			t.Errorf("seed %d: threads = %d, cpis = %v", cfg.Seed, threads, cpis)
		}
	}
}

// TestProfileMultiHonoursScheduleKnobs: AttachInstr and NaiveSplit are
// properties of the dynamic schedule, so a many-rank Target gets them
// like a one-core one (TestAttachInstrFastForwards' twin).
func TestProfileMultiHonoursScheduleKnobs(t *testing.T) {
	cfg := testConfig(4)
	cfg.Threads = 2
	cfg.Cycles = 1
	// 54KB, 34KB and 14KB to steal: the way-granular split rounds each to
	// whole 4KB quanta, the naive one hands out the bytes as asked.
	cfg.Sizes = []int64{10 << 10, 30 << 10, 50 << 10}
	run := func(cfg Config) (*analysis.Curve, *Report) {
		curve, rep, err := ProfileMulti(cfg, []int{0, 1}, randTarget(48<<10))
		if err != nil {
			t.Fatal(err)
		}
		return curve, rep
	}
	base, baseRep := run(cfg)

	ff := cfg
	ff.AttachInstr = 50_000
	if _, rep := run(ff); rep.TargetInstructions < baseRep.TargetInstructions+50_000 {
		t.Errorf("AttachInstr 50000 ignored: the run retired %d Target instructions, %d without it",
			rep.TargetInstructions, baseRep.TargetInstructions)
	}

	naive := cfg
	naive.NaiveSplit = true
	if curve, _ := run(naive); reflect.DeepEqual(curve, base) {
		t.Error("NaiveSplit ignored: naive and way-granular curves are identical")
	}
}

func TestProfileMultiAggregateVsSingle(t *testing.T) {
	// One rank through the multi path must agree with Profile.
	cfg := testConfig(2)
	cfg.Threads = 1
	multi, _, err := ProfileMulti(cfg, []int{0}, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := Profile(cfg, randTarget(48<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Points {
		s, m := single.Points[i], multi.Points[i]
		d := s.FetchRatio - m.FetchRatio
		if d < 0 {
			d = -d
		}
		// The multi path warms differently (3x floor), allow slack.
		if d > 0.08 {
			t.Errorf("size %d: single fetch %g vs multi %g", s.CacheBytes, s.FetchRatio, m.FetchRatio)
		}
	}
}

func TestProfileMultiBandwidthHungryRanksVeto(t *testing.T) {
	// Two streaming ranks eat L3 bandwidth; the thread test should be
	// able to run without error and pick a sane count.
	stream := func(seed uint64) workload.Generator {
		return workload.NewSequential(workload.SequentialConfig{
			Name: "s", Span: 48 << 10, NInstr: 1, MLP: 6})
	}
	cfg, tgt, err := resolve(testConfig(4), []int{0, 1}, eachCore(stream))
	if err != nil {
		t.Fatal(err)
	}
	threads, _, err := scanThreads(cfg, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if threads < 1 {
		t.Errorf("threads = %d", threads)
	}
}
