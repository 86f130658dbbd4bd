package stackdist

import (
	"fmt"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// captureLines records n line-granular accesses from a generator.
func captureLines(gen workload.Generator, n int) *trace.Trace {
	tr := &trace.Trace{Records: make([]trace.Record, 0, n)}
	for i := 0; i < n; i++ {
		op := gen.Next()
		tr.Records = append(tr.Records, trace.Record{Addr: op.Addr, NInstr: 1, Write: op.Write})
	}
	return tr
}

func randTrace(span int64, seed uint64, n int) *trace.Trace {
	return captureLines(workload.NewRandomAccess(workload.RandomConfig{
		Name: "r", Span: span, NInstr: 1, WriteFrac: 0.25, Seed: seed}), n)
}

// setAssocProfile feeds tr's records through a fresh set-associative
// profiler (64-byte lines) and returns its depth histogram.
func setAssocProfile(t *testing.T, tr *trace.Trace, sets, maxWays int) *SetAssocHistogram {
	t.Helper()
	p, err := NewSetAssocProfiler(sets, maxWays, 6)
	if err != nil {
		t.Fatal(err)
	}
	p.Feed(tr.Records)
	return p.Histogram()
}

// TestSetAssocProfilerMatchesReplicas is the Mattson cross-check the fused
// sweep's LRU fast path rests on: the one-pass per-set stack analysis
// must reproduce, hit for hit, the demand hits of the cache.Cache
// kernel (each fused-engine L3 replica is one) at every way count —
// bit-for-bit, not approximately. Stack inclusion makes this exact for
// true-LRU.
func TestSetAssocProfilerMatchesReplicas(t *testing.T) {
	const (
		sets    = 64
		maxWays = 16
		line    = int64(64)
	)
	for _, n := range []int{500, 20000} {
		tr := randTrace(96<<10, uint64(n), n)
		h := setAssocProfile(t, tr, sets, maxWays)
		reps := make([]*cache.Cache, maxWays)
		for w := 1; w <= maxWays; w++ {
			reps[w-1] = cache.MustNew(cache.Config{
				Name: "L3", Size: int64(sets) * int64(w) * line, Ways: w,
				LineSize: line, Policy: cache.LRU, Owners: 1,
			})
		}
		for _, r := range tr.Records {
			for _, c := range reps {
				c.AccessFill(cache.Addr(r.Addr), r.Write, 0)
			}
		}
		for w := 1; w <= maxWays; w++ {
			want := reps[w-1].Stats(0)
			hits, err := h.Hits(w)
			if err != nil {
				t.Fatal(err)
			}
			if hits != want.Hits {
				t.Errorf("n=%d ways=%d: stack model %d hits, replica kernel %d", n, w, hits, want.Hits)
			}
			if misses := h.Total - hits; misses != want.Misses {
				t.Errorf("n=%d ways=%d: stack model %d misses, replica kernel %d", n, w, misses, want.Misses)
			}
		}
	}
}

// TestSetAssocProfilerSequentialThrash pins the classic cyclic-scan
// behaviour: a loop over more lines than the cache holds misses every
// time under LRU at every way count, while a loop that fits hits after
// the first pass.
func TestSetAssocProfilerSequentialThrash(t *testing.T) {
	const sets, ways = 8, 4
	gen := workload.NewSequential(workload.SequentialConfig{Name: "s", Span: 2 * sets * ways * 64, Elem: 64})
	tr := captureLines(gen, 3*2*sets*ways)
	h := setAssocProfile(t, tr, sets, ways)
	if hits, _ := h.Hits(ways); hits != 0 {
		t.Errorf("over-capacity cyclic scan should thrash LRU, got %d hits", hits)
	}

	fits := workload.NewSequential(workload.SequentialConfig{Name: "s", Span: sets * ways * 64, Elem: 64})
	trFits := captureLines(fits, 3*sets*ways)
	h2 := setAssocProfile(t, trFits, sets, ways)
	if hits, _ := h2.Hits(ways); hits != uint64(2*sets*ways) {
		t.Errorf("resident scan should hit every non-cold access, got %d of %d", hits, 2*sets*ways)
	}
}

// TestSetAssocProfilerMonotone: hits can only grow with associativity
// (stack inclusion), and the histogram accounts for every access.
func TestSetAssocProfilerMonotone(t *testing.T) {
	tr := randTrace(64<<10, 9, 8000)
	h := setAssocProfile(t, tr, 64, 16)
	var sum uint64
	prev := uint64(0)
	for w := 1; w <= h.MaxWays; w++ {
		hits, err := h.Hits(w)
		if err != nil {
			t.Fatal(err)
		}
		if hits < prev {
			t.Errorf("hits not monotone at %d ways: %d < %d", w, hits, prev)
		}
		prev = hits
	}
	for _, d := range h.Depths {
		sum += d
	}
	if sum+h.Absent != h.Total {
		t.Errorf("histogram mass %d + absent %d != total %d", sum, h.Absent, h.Total)
	}
	if mr, err := h.MissRatio(16); err != nil || mr < 0 || mr > 1 {
		t.Errorf("miss ratio %g err %v", mr, err)
	}
	if _, err := h.Hits(0); err == nil {
		t.Error("ways 0 accepted")
	}
	if _, err := h.Hits(17); err == nil {
		t.Error("ways beyond MaxWays accepted")
	}
}

// TestSetAssocFeedAllocFree gates the per-set profiling hot loop: after
// the first warm-up pass has grown every set's stack to its working
// depth, repeated Feed calls over the same records must not allocate.
func TestSetAssocFeedAllocFree(t *testing.T) {
	tr := randTrace(96<<10, 5, 20000)
	p, err := NewSetAssocProfiler(64, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	p.Feed(tr.Records) // warm: pools grow to steady-state depth
	if allocs := testing.AllocsPerRun(20, func() {
		p.Feed(tr.Records)
	}); allocs != 0 {
		t.Fatalf("SetAssocProfiler.Feed allocated %v times per run on warm pools", allocs)
	}
}

// TestSetAssocProfilerValidation pins the error shapes.
func TestSetAssocProfilerValidation(t *testing.T) {
	if _, err := NewSetAssocProfiler(0, 4, 6); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := NewSetAssocProfiler(8, 0, 6); err == nil {
		t.Error("zero ways accepted")
	}
	// Non-power-of-two set counts use the modulo mapping.
	if _, err := NewSetAssocProfiler(12, 4, 6); err != nil {
		t.Errorf("non-pow2 sets rejected: %v", err)
	}
}

// refSetAssoc is the move-to-front Mattson pass as Feed read before its
// depth-0 fast path: a live depth per set bounds the tag scan, and the
// stack rotates with copy. It is the reference model for
// TestSetAssocFeedMatchesReference.
type refSetAssoc struct {
	sets, maxWays int
	stacks        []uint64
	depth         []int32
	depths        []uint64
	absent, total uint64
}

func newRefSetAssoc(sets, maxWays int) *refSetAssoc {
	return &refSetAssoc{
		sets: sets, maxWays: maxWays,
		stacks: make([]uint64, sets*maxWays),
		depth:  make([]int32, sets),
		depths: make([]uint64, maxWays),
	}
}

func (p *refSetAssoc) feed(blk []trace.Record) {
	maxWays := p.maxWays
	for i := range blk {
		tag := blk[i].Addr >> 6
		si := tag % uint64(p.sets)
		st := p.stacks[int(si)*maxWays : int(si)*maxWays+maxWays]
		n := int(p.depth[si])
		p.total++
		found := -1
		for d := 0; d < n; d++ {
			if st[d] == tag {
				found = d
				break
			}
		}
		if found >= 0 {
			p.depths[found]++
			copy(st[1:found+1], st[:found])
		} else {
			p.absent++
			if n < maxWays {
				p.depth[si] = int32(n + 1)
				n++
			}
			copy(st[1:n], st[:n-1])
		}
		st[0] = tag
	}
}

// reset clears the live depths and counters; stale tags stay behind in
// the stacks, below every live depth.
func (p *refSetAssoc) reset() {
	clear(p.depth)
	clear(p.depths)
	p.absent, p.total = 0, 0
}

// assertSetAssocMatchesRef compares the counters and every stack: the
// reference's live prefix must be the profiler's, and the rest of the
// profiler's stack must hold the set's empty tag.
func assertSetAssocMatchesRef(t *testing.T, p *SetAssocProfiler, ref *refSetAssoc) {
	t.Helper()
	if p.total != ref.total || p.absent != ref.absent {
		t.Fatalf("total/absent = %d/%d, reference %d/%d", p.total, p.absent, ref.total, ref.absent)
	}
	for d := range ref.depths {
		if p.depths[d] != ref.depths[d] {
			t.Fatalf("depths[%d] = %d, reference %d", d, p.depths[d], ref.depths[d])
		}
	}
	for set := 0; set < ref.sets; set++ {
		n := int(ref.depth[set])
		got := p.stacks[set*p.maxWays : (set+1)*p.maxWays]
		want := ref.stacks[set*ref.maxWays : set*ref.maxWays+n]
		for d, tag := range got {
			if d < n && tag != want[d] {
				t.Fatalf("set %d slot %d: tag %#x, reference %#x", set, d, tag, want[d])
			}
			if d >= n && tag != p.emptyTag(set) {
				t.Fatalf("set %d slot %d beyond live depth %d holds %#x", set, d, n, tag)
			}
		}
	}
}

// TestSetAssocFeedMatchesReference pins the depth-0 fast path and the
// one-pass shift to the move-to-front reference, field for field, on
// random traces with a strong depth-0 share: mask (64 sets) and modulo
// (96 sets) indexing, 1 to 24 ways, uneven blocks. Then both are reset
// and fed a second trace whose first line is a stale most-recent tag
// of the first: a Reset that left it in place would count a depth-0
// hit where the reference sees a cold miss.
func TestSetAssocFeedMatchesReference(t *testing.T) {
	blocks := []int{1, 5, 333, 17, 4096}
	feedBoth := func(p *SetAssocProfiler, ref *refSetAssoc, recs []trace.Record) {
		for lo, i := 0, 0; lo < len(recs); i++ {
			hi := min(len(recs), lo+blocks[i%len(blocks)])
			p.Feed(recs[lo:hi])
			ref.feed(recs[lo:hi])
			lo = hi
		}
	}
	for _, sets := range []int{64, 96} {
		for _, ways := range []int{1, 2, 7, 16, 24} {
			t.Run(fmt.Sprintf("sets=%d/ways=%d", sets, ways), func(t *testing.T) {
				span := int64(sets*ways) * 64 * 3 / 2
				first := sparseTestTrace(30_000, span)
				p, err := NewSetAssocProfiler(sets, ways, 6)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefSetAssoc(sets, ways)
				feedBoth(p, ref, first.Records)
				assertSetAssocMatchesRef(t, p, ref)
				if p.depths[0] == 0 || p.absent == 0 || (ways > 2 && p.depths[ways-1] == 0) {
					t.Fatalf("trace misses a path: depths %v, absent %d", p.depths, p.absent)
				}

				p.Reset()
				ref.reset()
				stale := first.Records[len(first.Records)-1]
				second := append([]trace.Record{stale}, randTrace(span, uint64(sets+ways), 5000).Records...)
				feedBoth(p, ref, second)
				assertSetAssocMatchesRef(t, p, ref)
			})
		}
	}
}

// TestSetAssocByteLines covers the empty tag with no line shift: a tag
// of another set marks an empty slot, so the all-ones address still
// profiles as a cold miss; one set of byte lines has no spare tag and
// is rejected.
func TestSetAssocByteLines(t *testing.T) {
	recs := []trace.Record{{Addr: ^uint64(0)}, {Addr: ^uint64(0)}, {Addr: 1}, {Addr: 2}}
	p, err := NewSetAssocProfiler(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Feed(recs)
	h := p.Histogram()
	if h.Absent != 3 || h.Depths[0] != 1 || h.Total != 4 {
		t.Fatalf("byte-line histogram %+v, want 3 absent and 1 depth-0 hit", h)
	}
	if _, err := NewSetAssocProfiler(1, 4, 0); err == nil {
		t.Error("one set of byte lines accepted")
	}
}
