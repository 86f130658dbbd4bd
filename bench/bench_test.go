package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cachepirate/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tailAt must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64 // the value in 1..n that must be returned
		wantPct float64
		ok      bool
	}{
		{200, 0.95, 190, 0.95, true}, // p95 of 200 has exactly ten beyond
		{200, 0.99, 190, 0.95, true}, // p99 would have two: lowered to p95
		{20000, 1, 19990, 0.9995, true},
		{19800, 0.99, 19602, 0.99, true},
		{21, 1, 11, 11.0 / 21, true},
		{20, 0.5, 0, 0, false},
	} {
		v, pct, ok := tailAt(seq(tc.n), tc.p)
		if ok != tc.ok || v != tc.want || pct != tc.wantPct {
			t.Errorf("tailAt(%d samples, %g) = %g, %g, %v; want %g, %g, %v", tc.n, tc.p, v, pct, ok, tc.want, tc.wantPct, tc.ok)
		}
		if ok {
			if beyond := tc.n - int(v); beyond < tailMinBeyond {
				t.Errorf("tailAt(%d samples, %g): %d samples beyond, want >= %d", tc.n, tc.p, beyond, tailMinBeyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "decode", Start: 10, End: 30, Parent: 0, N: 7},
		{Name: "decode", Start: 20, End: 50, Parent: 0, N: 5}, // overlaps the first: union is [10,50]
		{Name: "decode", Start: 90, End: 120, Parent: 0},      // clipped at the parent's end
		{Name: "inner", Start: 12, End: 18, Parent: 1},        // grandchild: only its parent loses it
		{Name: "op", Start: 200, End: 260, Parent: -1},        // childless: all self
	}
	got := totals(spans)
	if op := got["op"]; op.Spans != 2 || op.Total != 160 || op.Self != (100-50)+60 {
		t.Errorf("op totals = %+v, want 2 spans, total 160, self 110", op)
	}
	if d := got["decode"]; d.Spans != 3 || d.Total != 20+30+30 || d.Self != 80-6 || d.N != 12 {
		t.Errorf("decode totals = %+v, want 3 spans, total 80, self 74, n 12", d)
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	c, endOp := tr.root("op", 3)
	child, endChild := c.startN("trace.NextBlock")
	endChild(42)
	endOp()
	if child.parent != 1 || len(tr.spans) != 2 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if s := tr.spans[1]; s.Parent != 0 || s.Op != 3 || s.N != 42 || s.End < s.Start {
		t.Errorf("child span = %+v", s)
	}
	// The zero context records nothing and hands out working no-ops.
	_, end := spanCtx{}.start("x")
	end()
}

func TestScheduleIsSeededAndExact(t *testing.T) {
	const n = 2000
	a, b := schedule(7, n), schedule(7, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, n)) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != n {
		t.Fatalf("%d requests, want %d", len(a), n)
	}
	seen := map[int]bool{}
	for blk := 0; blk < n/scheduleBlock; blk++ {
		misses := 0
		for _, q := range a[blk*scheduleBlock : (blk+1)*scheduleBlock] {
			switch {
			case q.miss:
				misses++
				if seen[q.key] || q.key < 0 || q.key >= n/scheduleBlock {
					t.Errorf("block %d: miss key %d repeated or out of range", blk, q.key)
				}
				seen[q.key] = true
			case q.key < 0 || q.key >= hotKeys:
				t.Errorf("block %d: hot key %d out of range", blk, q.key)
			}
		}
		if misses != 1 {
			t.Errorf("block %d has %d misses, want exactly 1", blk, misses)
		}
	}
}

// fakeSource is a BlockSource that records what reached it.
type fakeSource struct {
	blocks, rewinds, closes int
}

func (f *fakeSource) NextBlock() ([]trace.Record, error) {
	f.blocks++
	return make([]trace.Record, 5), nil
}
func (f *fakeSource) Rewind() error          { f.rewinds++; return nil }
func (f *fakeSource) NumRecords() int64      { return 123 }
func (f *fakeSource) NumInstructions() int64 { return 456 }
func (f *fakeSource) Close() error           { f.closes++; return nil }

func TestTimedSourceForwards(t *testing.T) {
	tr := newTracer()
	c, end := tr.root("op", 0)
	inner := &fakeSource{}
	var src trace.BlockSource = &timedSource{src: inner, c: c}
	if blk, err := src.NextBlock(); err != nil || len(blk) != 5 {
		t.Fatalf("NextBlock = %d records, %v", len(blk), err)
	}
	if err := src.Rewind(); err != nil || inner.rewinds != 1 {
		t.Errorf("Rewind not forwarded")
	}
	if src.NumRecords() != 123 || src.NumInstructions() != 456 {
		t.Errorf("counts not forwarded")
	}
	closer, ok := src.(interface{ Close() error })
	if !ok {
		t.Fatal("timedSource hides Close: the engines would leak the file")
	}
	if err := closer.Close(); err != nil || inner.closes != 1 {
		t.Errorf("Close not forwarded")
	}
	end()
	if got := totals(tr.spans)["trace.NextBlock"]; got.Spans != 1 || got.N != 5 {
		t.Errorf("decode span = %+v, want one span of 5 records", got)
	}
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCompareAppliesBoundsAndExactness(t *testing.T) {
	spec := testSpec(t)
	mk := func(seed uint64, throughput, rss, errPP float64) *result {
		return &result{
			Workload: "lru_fast", Seed: seed, Correct: true,
			Exact: map[string]float64{"fail_ratio": 0, "estimate_err_pp": errPP},
			EndToEnd: map[string]metricValue{
				"setup_s": {Value: 1}, "work_per_s": {Value: throughput}, "op_ms_p50": {Value: 10},
				"compute_ms_p50": {Value: 10}, "peak_rss_mb": {Value: rss},
			},
		}
	}
	dir := t.TempDir()
	write := func(name string, r *result) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Results: []*result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// The cases sit one point either side of the bounds BENCHMARK.json fixes,
	// whatever they are.
	bound := func(name string) float64 {
		for _, m := range spec.EndToEnd {
			if m.Name == name && m.Bound != nil {
				return *m.Bound
			}
		}
		t.Fatalf("no bound for %s", name)
		return 0
	}
	slower := func(by float64) float64 { return 1000 * (1 - bound("work_per_s") - by) }
	fatter := 50 * (1 + bound("peak_rss_mb") + 0.01)
	base := write("a.json", mk(1, 1000, 50, 9.27))
	for _, tc := range []struct {
		name string
		b    *result
		ok   bool
	}{
		{"identical", mk(1, 1000, 50, 9.27), true},
		{"throughput one point inside its bound", mk(1, slower(-0.01), 50, 9.27), true},
		{"throughput one point outside its bound", mk(1, slower(0.01), 50, 9.27), false},
		{"throughput higher is never a regression", mk(1, 5000, 50, 9.27), true},
		{"rss one point outside its bound", mk(1, 1000, fatter, 9.27), false},
		{"exact metric moved", mk(1, 1000, 50, 9.28), false},
		{"another seed: exact metrics not compared", mk(2, 1000, 50, 9.5), true},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(spec, base, write("b.json", tc.b), &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
	bad := mk(1, 1000, 50, 9.27)
	bad.Correct = false
	var out bytes.Buffer
	if ok, _ := compareFiles(spec, base, write("b.json", bad), &out); ok {
		t.Errorf("an incorrect run passed -compare\n%s", out.String())
	}
}

// TestSpecMeetsContract checks BENCHMARK.json against the limits the driver
// enforces before it runs anything.
func TestSpecMeetsContract(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end", m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside [0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower")
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		check("per-layer", m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// zeroWhenHealthy are per-layer metrics that read 0 on a sound run: fault
// counters, and the miss tail, which the 1/100-scale smoke run has too few
// misses to report.
var zeroWhenHealthy = map[string]bool{
	"server.flights_deduped": true, "server.evictions": true, "server.rejected": true,
	"server.write_failures": true, "server.miss_ms_p95": true,
}

// TestSmokeEveryWorkload runs each workload untraced and traced at 1/100
// scale: every oracle must pass, every end-to-end metric must be non-zero on
// every workload, and every per-layer metric must be measured by some
// workload.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			p := params{workload: w.Name, seed: 3, seconds: float64(spec.RunSeconds), traced: traced, scale: 0.01}
			t0 := time.Now()
			res, err := runWorkload(spec, root, p, false)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			t.Logf("%s traced=%v: %d ops in %v", w.Name, traced, res.Attempted, time.Since(t0).Round(time.Millisecond))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d failed of %d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			var line bytes.Buffer
			if err := printResultLine(&line, res); err != nil {
				t.Fatal(err)
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if v := res.EndToEnd[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end %s = %g, want > 0", w.Name, m.Name, v)
					}
				}
				continue
			}
			if len(res.PerLayer) != len(spec.PerLayer) {
				t.Errorf("%s: %d per-layer metrics printed, BENCHMARK.json has %d", w.Name, len(res.PerLayer), len(spec.PerLayer))
			}
			for name, v := range res.PerLayer {
				measured[name] = measured[name] || v.Value != 0
			}
			if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", w.Name, err)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] && !zeroWhenHealthy[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
	leftovers, err := filepath.Glob(filepath.Join(root, "bench", "out", "tmp-*"))
	if err != nil || len(leftovers) != 0 {
		t.Errorf("scratch directories left behind: %v %v", leftovers, err)
	}
}
