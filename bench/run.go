package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"cachepirate/internal/analysis"
	"cachepirate/internal/conformance"
)

// params is one workload invocation.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// scale shrinks every input (records, requests, time-box, simulated
	// instructions) by one factor. It is 1 except in the package's smoke
	// test, which runs each workload at 1/100.
	scale float64
}

// scaled returns n shrunk by the run's scale, at least min.
func (p params) scaled(n, min int) int {
	if v := int(float64(n) * p.scale); v > min {
		return v
	}
	return min
}

// hostInfo is recorded in every output: timings mean nothing without it.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// maxProcs caps GOMAXPROCS and the load generator's client count, so a
// number taken on a big host is still comparable with one from a 4-core CI
// runner.
const maxProcs = 4

func procs() int {
	if n := runtime.NumCPU(); n < maxProcs {
		return n
	}
	return maxProcs
}

func host() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown", // a driver checkout is not a git repository
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// result is what one workload run produced: the -o file format, and the unit
// that -all merges and -compare reads. A run fills EndToEnd (untraced) or
// PerLayer (traced); -all merges the two runs of a workload into one result.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Samples is how many timed operations the medians rest on; WorkUnit
	// names what work_per_s counts on this workload.
	Samples  int    `json:"samples"`
	WorkUnit string `json:"work_unit"`
	// Exact holds the simulated or counted figures that must repeat to the
	// bit between two runs of one commit and seed: fail_ratio and the
	// accuracy of the approximate methods. -compare requires equality.
	Exact    map[string]float64     `json:"exact"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Problems []string               `json:"problems,omitempty"`
}

// run is the state of one workload run.
type run struct {
	params
	dir      string // scratch directory under bench/out, removed when the run ends
	tr       *tracer
	e2e      map[string]float64
	layer    map[string]float64
	notes    map[string]string
	exact    map[string]float64
	workUnit string
	samples  int

	attempted, failed int
	oracleFailed      bool
	problems          []string
}

func newRun(p params, dir string) *run {
	r := &run{
		params: p, dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{},
		notes: map[string]string{}, exact: map[string]float64{},
	}
	if p.traced {
		r.tr = newTracer()
	}
	return r
}

const maxProblems = 8

func (r *run) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opFailed counts one failed operation.
func (r *run) opFailed(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// oracleFail records a failed correctness check that is not tied to one op.
func (r *run) oracleFail(format string, args ...any) {
	r.oracleFailed = true
	r.problem(format, args...)
}

func (r *run) correct() bool { return r.failed == 0 && !r.oracleFailed }

// unverifiedBelow4 marks a multi-core ratio taken on a host that cannot show
// one: the ROADMAP's >=2x targets need at least four cores.
func (r *run) unverifiedBelow4(metric string) {
	if n := runtime.NumCPU(); n < 4 {
		r.notes[metric] = fmt.Sprintf("unverified: %d cpus", n)
	}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// sameCurves checks an op's curves bit for bit against the first op's.
func sameCurves(want, got []*analysis.Curve) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d curves, want %d", len(got), len(want))
	}
	for i := range want {
		if err := conformance.CurvesIdentical(want[i], got[i]); err != nil {
			return fmt.Errorf("curve %d (%s): %w", i, want[i].Name, err)
		}
	}
	return nil
}

// digest hashes every field of every point, floats by their bit pattern, so
// two digests agree only when the simulated statistics are identical.
func digest(curves []*analysis.Curve) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range curves {
		h.Write([]byte(c.Name))
		u64(uint64(len(c.Points)))
		for _, p := range c.Points {
			u64(uint64(p.CacheBytes))
			for _, f := range []float64{p.CPI, p.BandwidthGBs, p.FetchRatio, p.MissRatio, p.PirateFetchRatio} {
				u64(math.Float64bits(f))
			}
			trusted := uint64(0)
			if p.Trusted {
				trusted = 1
			}
			u64(trusted)
			u64(uint64(p.Samples))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// golden is bench/golden.json: curve digests of every workload at one seed.
// Float results depend on whether the compiler fuses multiply-adds, so the
// pins hold for the architecture they were taken on only.
type golden struct {
	Seed    uint64            `json:"seed"`
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}

func goldenPath(root string) string { return filepath.Join(root, "bench", "golden.json") }

func readGolden(root string) (*golden, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// checkGolden compares the run's first curves with the pinned digest when the
// run is the pinned configuration (full scale, golden seed, same GOARCH). A
// mismatch means simulated statistics changed: every op of the run is wrong.
func (r *run) checkGolden(root string, first []*analysis.Curve, update bool) error {
	if r.scale != 1 {
		return nil
	}
	got := digest(first)
	g, err := readGolden(root)
	if update {
		if err != nil || g.Seed != r.seed || g.GOARCH != runtime.GOARCH {
			g = &golden{Seed: r.seed, GOARCH: runtime.GOARCH, Digests: map[string]string{}}
		}
		g.Digests[r.workload] = got
		return writeJSON(goldenPath(root), g)
	}
	if err != nil {
		return err
	}
	if g.Seed != r.seed || g.GOARCH != runtime.GOARCH {
		return nil
	}
	if want := g.Digests[r.workload]; want != got {
		r.failed = r.attempted
		r.oracleFail("golden: curve digest %s, pinned %s (simulated statistics changed)", got, want)
	}
	return nil
}
