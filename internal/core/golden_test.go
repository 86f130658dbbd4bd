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

var updateProfileGolden = flag.Bool("update-profile-golden", false,
	"rewrite testdata/profile_golden.json from this run instead of checking it")

const profileGoldenPath = "testdata/profile_golden.json"

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
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range c.Points {
		word(uint64(p.CacheBytes))
		for _, f := range []float64{p.CPI, p.BandwidthGBs, p.FetchRatio, p.MissRatio, p.PirateFetchRatio} {
			word(math.Float64bits(f))
		}
		trusted := uint64(0)
		if p.Trusted {
			trusted = 1
		}
		word(trusted)
		word(uint64(p.Samples))
	}
	for _, v := range extra {
		word(v)
	}
	return hex.EncodeToString(h.Sum(nil))
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
	if runtime.GOARCH != "amd64" && !*updateProfileGolden {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	var want profileGolden
	if !*updateProfileGolden {
		data, err := os.ReadFile(profileGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", profileGoldenPath, err)
		}
		if want.GOARCH != runtime.GOARCH {
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
	if *updateProfileGolden {
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
			t.Errorf("%s: no pinned digest (run with -update-profile-golden at a commit known good)", key)
		} else if g != w {
			t.Errorf("%s: digest %s, pinned %s (simulated statistics changed)", key, g, w)
		}
	}
}
