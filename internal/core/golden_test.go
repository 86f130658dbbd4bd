package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/machine"
	"cachepirate/internal/workload"
)

var update = flag.Bool("update", false,
	"rewrite testdata/profile_golden.json from this run instead of checking it")

const profileGoldenPath = "testdata/profile_golden.json"

// digestArches are the GOARCH values that must reproduce the pinned
// digests: amd64, where they were written, and 386, where math.Exp and
// math.Log are pure Go, int is 32 bits and a uint64 is 4-byte aligned.
var digestArches = map[string]bool{"amd64": true, "386": true}

// profileGolden is testdata/profile_golden.json: one digest per case,
// valid on the architecture that wrote it (float64 sums fuse
// differently elsewhere, as for bench/golden.json).
type profileGolden struct {
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}

// curveDigest hashes every field of every point, floats by their bits,
// followed by any extra words.
func curveDigest(c *analysis.Curve, extra ...uint64) string {
	var words []uint64
	for _, p := range c.Points {
		words = append(words, uint64(p.CacheBytes),
			math.Float64bits(p.CPI), math.Float64bits(p.BandwidthGBs), math.Float64bits(p.FetchRatio),
			math.Float64bits(p.MissRatio), math.Float64bits(p.PirateFetchRatio),
			boolWord(p.Trusted), uint64(p.Samples))
	}
	return wordDigest(append(words, extra...)...)
}

// wordDigest hashes a word list, little-endian.
func wordDigest(words ...uint64) string {
	h := sha256.New()
	for _, v := range words {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func floatWords(fs []float64) []uint64 {
	words := []uint64{uint64(len(fs))}
	for _, f := range fs {
		words = append(words, math.Float64bits(f))
	}
	return words
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// reportWords is every field of a Report but RankCPIs, the
// thread-test CPI list with its length so a truncated scan cannot alias
// a longer one.
func reportWords(rep *Report) []uint64 {
	words := append([]uint64{uint64(rep.ThreadsUsed)}, floatWords(rep.ThreadTestCPIs)...)
	return append(words, rep.TargetInstructions, math.Float64bits(rep.WallCycles))
}

// rankReportWords is every field of a Report: a many-rank Target's
// digests cover its RankCPIs too.
func rankReportWords(rep *Report) []uint64 {
	return append(reportWords(rep), floatWords(rep.RankCPIs)...)
}

// rigGoldenCases are the entry points TestProfileGolden's Nehalem
// matrix does not reach — the timeline, the many-rank Targets, the
// Table II sweeps and the thread-count test — each on the 64KB
// testMachine, so all of them together cost well under a second and
// -short keeps them. Every row returns the digest of everything its
// entry point returns.
var rigGoldenCases = []struct {
	key string
	run func() (string, error)
}{
	{"small/timeline", func() (string, error) {
		cfg := smallGoldenConfig()
		cfg.Threads = 2
		cfg.AttachInstr = 30_000
		return timelineDigest(cfg)
	}},
	// Three threads over 12, 8 and 4 stolen quanta: the naive byte split
	// and the way-granular one hand out different spans.
	{"small/timeline-naive", func() (string, error) {
		cfg := smallGoldenConfig()
		cfg.Threads = 3
		cfg.NaiveSplit = true
		return timelineDigest(cfg)
	}},
	{"small/multi", func() (string, error) {
		cfg := smallGoldenConfig()
		cfg.StealStep = 8 << 10 // a quantum for each thread of the test
		// The many-rank entry points seed the ranks from the caller's Seed
		// as given: zero stays zero (rank 1 gets 137), not defaulted to 1.
		cfg.Seed = 0
		curve, rep, err := ProfileMulti(cfg, []int{0, 1}, randTarget(48<<10))
		if err != nil {
			return "", err
		}
		return curveDigest(curve, rankReportWords(rep)...), nil
	}},
	{"small/parallel", func() (string, error) {
		cfg := smallGoldenConfig()
		cfg.StealStep = 8 << 10
		curve, rep, err := ProfileParallel(cfg, []int{0, 1}, parallelRanks(2, 96<<10))
		if err != nil {
			return "", err
		}
		return curveDigest(curve, rankReportWords(rep)...), nil
	}},
	{"small/steal", func() (string, error) {
		var words []uint64
		cfg := testConfig(3)
		cfg.StealStep = 8 << 10
		for threads := 1; threads <= 2; threads++ {
			res, err := MaxStealable(cfg, randTarget(32<<10), threads)
			if err != nil {
				return "", err
			}
			words = append(words, uint64(res.Threads), uint64(res.MaxWSS), uint64(len(res.ProbedWSS)))
			for _, w := range res.ProbedWSS {
				words = append(words, uint64(w))
			}
			words = append(words, floatWords(res.FetchRatios)...)
		}
		return wordDigest(words...), nil
	}},
	{"small/slowdown", func() (string, error) {
		sd, err := TargetSlowdown(testConfig(3), randTarget(64<<10), 16<<10, 1, 2)
		return wordDigest(math.Float64bits(sd)), err
	}},
	{"small/threads0/workers1", func() (string, error) { return threadsZeroDigest(1) }},
	{"small/threads0/workers2", func() (string, error) { return threadsZeroDigest(2) }},
	// The thread-count test on ranks 0 and 1, the Pirate on cores 2
	// and 3.
	{"small/determine-threads-multi", func() (string, error) {
		cfg := testConfig(4)
		cfg.StealStep = 8 << 10
		cfg, tgt, err := resolve(cfg, []int{0, 1}, eachCore(randTarget(32<<10)))
		if err != nil {
			return "", err
		}
		threads, cpis, err := scanThreads(cfg, tgt)
		return wordDigest(append([]uint64{uint64(threads)}, floatWords(cpis)...)...), err
	}},
}

// smallGoldenConfig is testConfig on four cores at every other size.
func smallGoldenConfig() Config {
	cfg := testConfig(4)
	cfg.Sizes = []int64{16 << 10, 32 << 10, 48 << 10, 64 << 10}
	return cfg
}

// timelineDigest covers every field of every ProfileTimeline sample,
// in schedule order, and the run's Report.
func timelineDigest(cfg Config) (string, error) {
	tl, rep, err := ProfileTimeline(cfg, randTarget(48<<10))
	if err != nil {
		return "", err
	}
	var words []uint64
	for _, s := range tl.Samples {
		words = append(words, uint64(s.Cycle), uint64(s.CacheBytes), s.StartInstr,
			math.Float64bits(s.CPI), math.Float64bits(s.BandwidthGBs), math.Float64bits(s.FetchRatio),
			math.Float64bits(s.MissRatio), math.Float64bits(s.PirateFetchRatio), boolWord(s.Trusted))
	}
	return wordDigest(append(words, reportWords(rep)...)...), nil
}

// threadsZeroDigest is a Profile that runs the thread-count test
// itself, three quanta of token so every candidate thread holds one.
// The second thread slows this Target past the threshold, so the scan
// stops there: at Workers 2 the third count is measured and dropped.
func threadsZeroDigest(workers int) (string, error) {
	cfg := smallGoldenConfig()
	cfg.StealStep = 12 << 10
	cfg.Workers = workers
	curve, rep, err := Profile(cfg, randTarget(64<<10))
	if err != nil {
		return "", err
	}
	return curveDigest(curve, reportWords(rep)...), nil
}

// TestProfileGolden pins the method itself — the Pirate co-run on the
// four-core Nehalem machine — to the bit, inside the module's own test
// suite: the curve of Profile (with the run's Target instruction count
// and wall cycles) and of ProfileFixedCurve, for a latency-bound, a
// bandwidth-bound and a prefetch-friendly Target, with one and two
// pirate threads, prefetchers off and on. The digests were written
// before the machine's hierarchy walk was flattened; any change to the
// walk, the step loop, the scheduler or the timing model that moves one
// simulated statistic fails here. The schedule is the default one at a
// reduced interval and four sizes; the Pirate still warms megabytes, so
// -short keeps only the prefetch-off half.
func TestProfileGolden(t *testing.T) {
	if !digestArches[runtime.GOARCH] && !*update {
		t.Skipf("digests are pinned on amd64 and 386, not %s", runtime.GOARCH)
	}
	var want profileGolden
	if !*update {
		data, err := os.ReadFile(profileGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", profileGoldenPath, err)
		}
		if !digestArches[want.GOARCH] {
			t.Skipf("digests were written on %s", want.GOARCH)
		}
	}
	got := profileGolden{GOARCH: runtime.GOARCH, Digests: map[string]string{}}
	var keys []string // in run order
	pin := func(key, digest string) {
		keys = append(keys, key)
		got.Digests[key] = digest
	}
	for _, pf := range []bool{false, true} {
		if pf && testing.Short() {
			continue
		}
		for _, name := range []string{"omnetpp", "lbm", "microseq"} {
			for threads := 1; threads <= 2; threads++ {
				cfg := Config{
					Machine:            machine.NehalemConfigNoPrefetch(),
					Sizes:              []int64{1 << 20, 3 << 20, 5<<20 + 512<<10, 8 << 20},
					IntervalInstrs:     20_000,
					TargetWarmupInstrs: 10_000,
					Cycles:             2,
					Threads:            threads,
					Seed:               7,
					Workers:            1,
				}
				if pf {
					cfg.Machine = machine.NehalemConfig()
				}
				newGen := workload.MustByName(name).New
				key := fmt.Sprintf("%s/threads%d/prefetch-%v", name, threads, pf)

				curve, rep, err := Profile(cfg, newGen)
				if err != nil {
					t.Fatalf("%s: Profile: %v", key, err)
				}
				pin(key+"/profile", curveDigest(curve,
					uint64(rep.ThreadsUsed), rep.TargetInstructions, math.Float64bits(rep.WallCycles)))

				fixed, err := ProfileFixedCurve(cfg, newGen, threads)
				if err != nil {
					t.Fatalf("%s: ProfileFixedCurve: %v", key, err)
				}
				pin(key+"/fixed", curveDigest(fixed))
			}
		}
	}
	for _, c := range rigGoldenCases {
		digest, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		pin(c.key, digest)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(profileGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(profileGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got.Digests), profileGoldenPath)
		return
	}
	for _, key := range keys {
		g := got.Digests[key]
		if w, ok := want.Digests[key]; !ok {
			t.Errorf("%s: no pinned digest (run with -update at a commit known good)", key)
		} else if g != w {
			t.Errorf("%s: digest %s, pinned %s (simulated statistics changed)", key, g, w)
		}
	}
}
