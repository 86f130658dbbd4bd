package stackdist

import (
	"math"
	"testing"
	"testing/quick"

	"cachepirate/internal/stats"
	"cachepirate/internal/trace"
)

// tr builds a trace from line indices.
func tr(lines ...uint64) *trace.Trace {
	t := &trace.Trace{}
	for _, l := range lines {
		t.Records = append(t.Records, trace.Record{Addr: l * 64})
	}
	return t
}

func TestDistancesKnownSequence(t *testing.T) {
	// A B C A B C: second A has seen {B, C} since -> distance 2, etc.
	d := Distances(tr(0, 1, 2, 0, 1, 2))
	want := []int64{Infinite, Infinite, Infinite, 2, 2, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("distance[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestDistancesImmediateReuse(t *testing.T) {
	d := Distances(tr(5, 5, 5))
	if d[1] != 0 || d[2] != 0 {
		t.Errorf("immediate reuse should be distance 0, got %v", d)
	}
}

func TestDistancesDuplicateIntermediates(t *testing.T) {
	// A B B A: the two Bs are one distinct line -> distance 1.
	d := Distances(tr(0, 1, 1, 0))
	if d[3] != 1 {
		t.Errorf("distance = %d, want 1 (duplicates collapse)", d[3])
	}
}

func TestAnalyzeHistogram(t *testing.T) {
	h, err := Analyze(tr(0, 1, 2, 0, 1, 2, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 7 || h.Cold != 3 {
		t.Fatalf("total=%d cold=%d, want 7/3", h.Total, h.Cold)
	}
	if h.Counts[2] != 4 {
		t.Errorf("Counts[2] = %d, want 4", h.Counts[2])
	}
	if h.ColdRatio() != 3.0/7.0 {
		t.Errorf("ColdRatio = %g", h.ColdRatio())
	}
}

func TestAnalyzeOverflow(t *testing.T) {
	// Distances of 2 with maxDistance 2 go to overflow.
	h, err := Analyze(tr(0, 1, 2, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.Overflow)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(tr(0), 0); err == nil {
		t.Error("maxDistance 0 accepted")
	}
	h, err := Analyze(&trace.Trace{}, 4)
	if err != nil || h.Total != 0 {
		t.Errorf("empty trace: %v %+v", err, h)
	}
}

func TestMissRatioThreshold(t *testing.T) {
	// Cyclic scan over 4 lines: all reuse distances are 3.
	h, _ := Analyze(tr(0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3), 16)
	// Capacity 4 lines: distance 3 < 4 -> hits; only the 4 cold misses.
	if got := h.MissRatio(4); math.Abs(got-4.0/12.0) > 1e-12 {
		t.Errorf("MissRatio(4) = %g, want 1/3", got)
	}
	// Capacity 3: distance 3 >= 3 -> everything misses.
	if got := h.MissRatio(3); got != 1 {
		t.Errorf("MissRatio(3) = %g, want 1 (LRU thrash)", got)
	}
	if got := h.MissRatio(0); got != 1 {
		t.Errorf("MissRatio(0) = %g, want 1", got)
	}
}

func TestMissRatioMonotoneNonIncreasing(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		tt := &trace.Trace{}
		for i := 0; i < 2000; i++ {
			tt.Records = append(tt.Records, trace.Record{Addr: rng.Uint64n(256) * 64})
		}
		h, err := Analyze(tt, 512)
		if err != nil {
			return false
		}
		prev := 1.1
		for c := int64(1); c <= 512; c *= 2 {
			mr := h.MissRatio(c)
			if mr > prev+1e-12 {
				return false
			}
			prev = mr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMatchesBruteForce cross-checks the Fenwick computation against a
// naive O(N^2) reference on random traces.
func TestMatchesBruteForce(t *testing.T) {
	brute := func(tt *trace.Trace) []int64 {
		out := make([]int64, tt.Len())
		for i, r := range tt.Records {
			line := r.Addr >> 6
			prev := -1
			for j := i - 1; j >= 0; j-- {
				if tt.Records[j].Addr>>6 == line {
					prev = j
					break
				}
			}
			if prev < 0 {
				out[i] = Infinite
				continue
			}
			seen := map[uint64]bool{}
			for j := prev + 1; j < i; j++ {
				seen[tt.Records[j].Addr>>6] = true
			}
			out[i] = int64(len(seen))
		}
		return out
	}
	rng := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		tt := &trace.Trace{}
		n := 50 + int(rng.Uint64n(150))
		for i := 0; i < n; i++ {
			tt.Records = append(tt.Records, trace.Record{Addr: rng.Uint64n(24) * 64})
		}
		want := brute(tt)
		got := Distances(tt)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d access %d: fenwick %d != brute %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	// 10 accesses at distance 1, 10 at distance 7.
	h := &Histogram{Counts: make([]uint64, 16), Total: 20}
	h.Counts[1] = 10
	h.Counts[7] = 10
	d, err := h.Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("P50 = %d, want 1", d)
	}
	d, _ = h.Percentile(1.0)
	if d != 7 {
		t.Errorf("P100 = %d, want 7", d)
	}
	if _, err := h.Percentile(1.5); err == nil {
		t.Error("percentile > 1 accepted")
	}
	empty := &Histogram{Counts: make([]uint64, 4)}
	if _, err := empty.Percentile(0.5); err == nil {
		t.Error("empty percentile accepted")
	}
}

func TestWorkingSetKnees(t *testing.T) {
	// Synthetic: heavy reuse at distance ~100 (a ~6.4KB working set).
	h := &Histogram{Counts: make([]uint64, 1024), Total: 1000}
	h.Counts[100] = 900
	h.Counts[3] = 100
	knees := h.WorkingSetKnees(0.5)
	if len(knees) != 1 || knees[0] != 128*64 {
		t.Errorf("knees = %v, want [8192]", knees)
	}
	var empty Histogram
	if got := empty.WorkingSetKnees(0.1); got != nil {
		t.Errorf("empty knees = %v", got)
	}
}

// TestCigarKneeRecovered: the suite's Cigar benchmark has its 6MB
// population scan; the stack-distance analysis must place a knee at
// ~6MB (98304 lines) without running the machine at all.
func TestCigarKneeRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("large trace analysis")
	}
	spec := mustSpec(t, "cigar")
	src := traceSourceOf(spec.New(1))
	tt := trace.Capture(src, 600_000)
	h, err := Analyze(tt, 1<<18) // track up to 16MB of distinct lines
	if err != nil {
		t.Fatal(err)
	}
	// Miss ratio must drop sharply across the 6MB boundary.
	before := h.MissRatio((5 << 20) / 64)
	after := h.MissRatio((7 << 20) / 64)
	if after >= before*0.7 {
		t.Errorf("no 6MB knee: missratio 5MB=%g 7MB=%g", before, after)
	}
}

// BenchmarkAnalyze tracks the Fenwick-tree path's throughput (and the
// last-position map's allocation behaviour) on a random 64K-line trace.
func BenchmarkAnalyze(b *testing.B) {
	rng := stats.NewRNG(7)
	t := &trace.Trace{Records: make([]trace.Record, 200_000)}
	for i := range t.Records {
		t.Records[i] = trace.Record{Addr: rng.Uint64n(1<<16) * 64}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(t, 1<<15); err != nil {
			b.Fatal(err)
		}
	}
}
