// SHARDS sampled stack-distance profiling (Waldspurger et al.,
// FAST'15): spatial hash sampling over the line address space reduces
// the Mattson pass to a constant fraction of the trace — or, in
// fixed-size mode, to a hard bound on tracked state — while the
// distances of the surviving accesses, rescaled by the sampling rate,
// still estimate the full reuse-distance distribution. A line is
// sampled iff hash(line) mod P < T; distances are measured among
// sampled lines only (a splay tree over their recency order, see
// splay.go) and scaled by P/T, and every sampled access contributes
// weight P/T to the histogram. At T = P the filter passes everything
// and the profile degenerates, bit for bit, to the exact Analyze
// histogram.
//
// Fixed-size mode (SHARDS_adj) additionally caps the number of
// concurrently tracked lines: when the cap is exceeded, the tracked
// line with the largest hash is evicted and T drops to that hash, so
// the rate adapts downward and memory stays O(MaxSampled) no matter
// how long the trace runs. The Adjust correction then reconciles the
// rescaled total with the true record count, as in the paper.
package stackdist

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"cachepirate/internal/trace"
)

// sampleModBits is log2 of the SHARDS sampling modulus P: thresholds
// are compared in a 24-bit hash domain, as in the paper.
const sampleModBits = 24

// sampleModulus is P.
const sampleModulus = 1 << sampleModBits

// SampledConfig parameterises a SampledProfiler.
type SampledConfig struct {
	// Rate is the initial sampling rate in (0, 1]. 1.0 samples every
	// line (the exact-degenerate mode). In fixed-size mode this is the
	// starting rate before adaptation (default 1.0).
	Rate float64
	// MaxSampled, when > 0, bounds the number of concurrently tracked
	// lines (SHARDS fixed-size mode): the threshold adapts downward to
	// hold the bound, and memory is O(MaxSampled) for any trace.
	MaxSampled int
	// Seed perturbs the spatial hash so independent profiles decorrelate;
	// the same seed always samples the same lines.
	Seed uint64
	// MaxDistance is the histogram depth in (rescaled) lines; deeper
	// finite distances fold into Overflow, as in Analyze.
	MaxDistance int
	// LineShift converts addresses to lines (default 6: 64-byte lines).
	LineShift uint
}

// Bucket is one non-empty distance of a SampledHistogram.
type Bucket struct {
	// Dist is the (rescaled) stack distance in lines.
	Dist int64
	// Mass estimates the number of accesses at distance Dist.
	Mass float64
}

// SampledHistogram is the rescaled reuse-distance distribution a
// SampledProfiler produces, kept sparse: a sampled profile puts mass
// on a few hundred of its MaxDistance distances. Masses are float64:
// each sampled access contributes the inverse sampling rate in effect
// when it was measured, so bucket values estimate true access counts.
// At rate 1.0 every weight is exactly 1 and the histogram equals the
// exact Analyze histogram value for value.
type SampledHistogram struct {
	// Buckets are the distances that received mass, ascending.
	// Every distance below MaxDistance that is not listed has none.
	Buckets []Bucket
	// MaxDistance is the tracked depth, SampledConfig.MaxDistance.
	MaxDistance int
	// Overflow estimates finite distances >= MaxDistance.
	Overflow float64
	// Cold estimates first-touch accesses — equivalently, the number
	// of distinct lines (the footprint estimator).
	Cold float64
	// Total is the rescaled access total (Buckets + Overflow + Cold mass).
	Total float64
	// Sampled is the raw number of accesses that passed the filter.
	Sampled uint64
	// Records is the true number of records observed, sampled or not.
	Records uint64
	// Rate is the final effective sampling rate T/P.
	Rate float64
}

// SampledProfiler computes a SampledHistogram incrementally from
// record blocks. The steady-state feed path allocates nothing; state
// grows only between bounded feed runs. Fixed-size mode pre-sizes the
// tracked-line state from MaxSampled, so there only the distance table
// grows, and it never holds more than MaxDistance entries.
type SampledProfiler struct {
	cfg       SampledConfig
	hashSeed  uint64
	lineShift uint

	threshold uint64  // sample iff hash24 < threshold
	invRate   float64 // P / threshold

	tree  *reuseTree
	table lineTable
	live  int

	// Eviction heap (fixed-size mode): a binary max-heap over the
	// 24-bit hashes of tracked lines, parallel arrays, pre-sized.
	heapHash []uint32
	heapIdx  []int32
	heapLen  int

	mass     massTable // per-distance mass, distances < MaxDistance
	overflow float64
	cold     float64
	total    float64
	sampled  uint64
	records  uint64
}

// initialPoolSize seeds the fixed-rate node pool; it doubles as needed
// outside the hot loop. Kept small: at product sampling rates only a
// few dozen lines are tracked, and profiler construction (pool + table
// zeroing) is part of every analytic curve's latency — full-rate
// profiles just pay a handful of non-hot doublings instead.
const initialPoolSize = 1 << 8

// initialMassSlots seeds the distance table. An R=0.01 profile of a
// 4M-record trace fills under a thousand distances, so the table
// doubles a few times at most; a full-rate profile doubles further,
// outside the hot loop, like the node pool.
const initialMassSlots = 1 << 8

// NewSampledProfiler validates cfg and builds a profiler.
func NewSampledProfiler(cfg SampledConfig) (*SampledProfiler, error) {
	if cfg.MaxDistance <= 0 {
		return nil, fmt.Errorf("stackdist: non-positive MaxDistance %d", cfg.MaxDistance)
	}
	if cfg.Rate == 0 && cfg.MaxSampled > 0 {
		cfg.Rate = 1 // fixed-size mode adapts downward from full rate
	}
	if cfg.Rate <= 0 || cfg.Rate > 1 || math.IsNaN(cfg.Rate) {
		return nil, fmt.Errorf("stackdist: sample rate %g outside (0, 1]", cfg.Rate)
	}
	if cfg.MaxSampled < 0 {
		return nil, fmt.Errorf("stackdist: negative MaxSampled %d", cfg.MaxSampled)
	}
	if cfg.LineShift == 0 {
		cfg.LineShift = 6
	}
	p := &SampledProfiler{
		cfg:       cfg,
		hashSeed:  cfg.Seed * 0x9E3779B97F4A7C15,
		lineShift: cfg.LineShift,
	}
	p.mass.init(initialMassSlots)
	p.threshold = uint64(math.Round(cfg.Rate * sampleModulus))
	if p.threshold == 0 {
		p.threshold = 1
	}
	p.invRate = sampleModulus / float64(p.threshold)
	pool := initialPoolSize
	if cfg.MaxSampled > 0 {
		pool = cfg.MaxSampled + 1
		p.heapHash = make([]uint32, pool)
		p.heapIdx = make([]int32, pool)
	}
	p.tree = newReuseTree(pool)
	p.table.init(tableCapFor(pool), p.hashSeed)
	return p, nil
}

// Rate returns the current effective sampling rate (T/P); fixed-size
// profiles adapt it downward as the working set grows.
func (p *SampledProfiler) Rate() float64 { return float64(p.threshold) / sampleModulus }

// Records returns how many records the profiler has observed.
func (p *SampledProfiler) Records() uint64 { return p.records }

// Sampled returns how many accesses passed the spatial filter.
func (p *SampledProfiler) Sampled() uint64 { return p.sampled }

// Live returns the number of currently tracked lines.
func (p *SampledProfiler) Live() int { return p.live }

// TrackedBytes reports the size of the profiler's variable state (tree
// pool + hash table + heap), the quantity fixed-size mode bounds.
func (p *SampledProfiler) TrackedBytes() int {
	return len(p.tree.nodes)*int(unsafe.Sizeof(treeNode{})) + len(p.table.keys)*12 + len(p.heapHash)*8
}

// Feed consumes a block of records, growing pooled state between
// bounded hot runs when fixed-rate sampling needs more tracked lines.
func (p *SampledProfiler) Feed(blk []trace.Record) {
	for len(blk) > 0 {
		n := p.feedBounded(blk)
		blk = blk[n:]
		if len(blk) > 0 {
			// The hot run stopped early: the node pool, the line table
			// or the distance table is at capacity. Double the starved
			// resource and continue.
			if p.tree.free == nilNode {
				p.tree.grow(len(p.tree.nodes))
			}
			if p.table.nearFull() {
				p.table.grow()
			}
			if p.mass.nearFull() {
				p.mass.grow()
			}
		}
	}
}

// FeedSource drains a BlockSource through Feed — the out-of-core entry
// point: one streamed pass, O(profile) memory, no trace materialised.
func (p *SampledProfiler) FeedSource(src trace.BlockSource) error {
	for {
		blk, err := src.NextBlock()
		if err != nil {
			return err
		}
		if len(blk) == 0 {
			return nil
		}
		p.Feed(blk)
	}
}

// feedBounded processes records until the block is exhausted or the
// profiler needs to grow, returning how many records it consumed. This
// is the profiling hot loop: for the overwhelming majority of records
// (everything the spatial filter rejects) it is one load, one hash,
// one compare — the loop-invariant fields live in locals and the
// sampled-record work is delegated to the non-inlined sampleOne, so
// the filter loop's register set stays minimal and its per-record cost
// approaches the streaming-read floor. It allocates nothing — growth
// is the non-hot caller's job.
//
//lint:hotpath
func (p *SampledProfiler) feedBounded(blk []trace.Record) int {
	shift := p.lineShift
	seed := p.hashSeed
	threshold := p.threshold
	for i := range blk {
		line := blk[i].Addr >> shift
		h := mix64(line ^ seed)
		if h>>(64-sampleModBits) >= threshold {
			continue
		}
		if !p.sampleOne(line, h) {
			// Record i needs an insertion there is no room for: stop
			// before it so the caller can grow and resume here.
			p.records += uint64(i)
			return i
		}
		// Fixed-size adaptation may have lowered the threshold.
		threshold = p.threshold
	}
	p.records += uint64(len(blk))
	return len(blk)
}

// sampleOne records one access that passed the spatial filter: a
// splay-tree distance query for tracked lines, or a tracked-set
// insertion (plus fixed-size rate adaptation) for new ones. Returns
// false — consuming nothing — when the access needs the caller to grow
// pooled state first: the node pool or line table for an insertion,
// the distance table for a distance that may be new. Deliberately kept
// out of feedBounded so the filter loop stays register-lean; at product
// sampling rates this runs for a tiny fraction of records.
//
//lint:hotpath
func (p *SampledProfiler) sampleOne(line, h uint64) bool {
	w := p.invRate
	idx, ok := p.table.get(line, h)
	if ok {
		if p.mass.nearFull() {
			return false
		}
		rank := p.tree.touch(idx)
		d := int64(float64(rank) * w)
		if d < int64(p.cfg.MaxDistance) {
			p.mass.add(d, w)
		} else {
			p.overflow += w
		}
	} else {
		if p.tree.free == nilNode || p.table.nearFull() {
			return false
		}
		ph := uint32(h >> (64 - sampleModBits))
		idx = p.tree.alloc(line, ph)
		p.tree.insertMax(idx)
		p.table.put(line, h, idx)
		p.live++
		p.cold += w
		if p.cfg.MaxSampled > 0 {
			p.heapPush(ph, idx)
			if p.live > p.cfg.MaxSampled {
				p.lowerThreshold()
			}
		}
	}
	p.sampled++
	p.total += w
	return true
}

// lowerThreshold implements the SHARDS_adj rate adaptation: the
// tracked line with the largest hash sets the new threshold, and every
// line at or above it (it and any hash ties) is evicted, bringing the
// tracked set back under MaxSampled. Future accesses are weighted by
// the new, larger inverse rate; the evicted lines' past contributions
// stand, exactly as in the paper.
//
//lint:hotpath
func (p *SampledProfiler) lowerThreshold() {
	newT := uint64(p.heapHash[0])
	for p.heapLen > 0 && uint64(p.heapHash[0]) >= newT {
		idx := p.heapPop()
		line := p.tree.nodes[idx].line
		p.tree.remove(idx)
		p.table.del(line, mix64(line^p.hashSeed))
		p.live--
	}
	p.threshold = newT
	if newT > 0 {
		p.invRate = sampleModulus / float64(newT)
	}
}

// heapPush adds (hash, idx) to the eviction max-heap.
//
//lint:hotpath
func (p *SampledProfiler) heapPush(hash uint32, idx int32) {
	i := p.heapLen
	p.heapHash[i] = hash
	p.heapIdx[i] = idx
	p.heapLen++
	for i > 0 {
		parent := (i - 1) / 2
		if p.heapHash[parent] >= p.heapHash[i] {
			break
		}
		p.heapHash[parent], p.heapHash[i] = p.heapHash[i], p.heapHash[parent]
		p.heapIdx[parent], p.heapIdx[i] = p.heapIdx[i], p.heapIdx[parent]
		i = parent
	}
}

// heapPop removes and returns the node index with the largest hash.
//
//lint:hotpath
func (p *SampledProfiler) heapPop() int32 {
	top := p.heapIdx[0]
	p.heapLen--
	n := p.heapLen
	p.heapHash[0] = p.heapHash[n]
	p.heapIdx[0] = p.heapIdx[n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && p.heapHash[l] > p.heapHash[big] {
			big = l
		}
		if r < n && p.heapHash[r] > p.heapHash[big] {
			big = r
		}
		if big == i {
			break
		}
		p.heapHash[big], p.heapHash[i] = p.heapHash[i], p.heapHash[big]
		p.heapIdx[big], p.heapIdx[i] = p.heapIdx[i], p.heapIdx[big]
		i = big
	}
	return top
}

// Histogram snapshots the profile accumulated so far.
func (p *SampledProfiler) Histogram() *SampledHistogram {
	return &SampledHistogram{
		Buckets:     p.mass.buckets(),
		MaxDistance: p.cfg.MaxDistance,
		Overflow:    p.overflow,
		Cold:        p.cold,
		Total:       p.total,
		Sampled:     p.sampled,
		Records:     p.records,
		Rate:        p.Rate(),
	}
}

// Adjust applies the SHARDS_adj total correction in place: sampling
// noise makes the rescaled total drift from the true record count, and
// the drift concentrates at small distances, so the difference is
// folded into the distance-0 bucket (clamped at zero; a rare large
// overshoot falls back to proportional rescaling). After Adjust, Total
// equals Records. At rate 1.0 the histogram is exact and Adjust is a
// no-op.
func (h *SampledHistogram) Adjust() {
	want := float64(h.Records)
	diff := want - h.Total
	has0 := len(h.Buckets) > 0 && h.Buckets[0].Dist == 0
	if diff >= 0 {
		switch {
		case has0:
			h.Buckets[0].Mass += diff
		case h.MaxDistance > 0:
			h.Buckets = slices.Insert(h.Buckets, 0, Bucket{Dist: 0, Mass: diff})
		default:
			h.Overflow += diff
		}
		h.Total = want
		return
	}
	if has0 && h.Buckets[0].Mass >= -diff {
		h.Buckets[0].Mass += diff
		h.Total = want
		return
	}
	if h.Total > 0 {
		f := want / h.Total
		for i := range h.Buckets {
			h.Buckets[i].Mass *= f
		}
		h.Overflow *= f
		h.Cold *= f
		h.Total = want
	}
}

// MissRatio returns the estimated miss ratio of a fully-associative
// LRU cache of capacityLines lines, mirroring Histogram.MissRatio. The
// hits are summed in ascending distance, as a dense walk would, so
// skipping the empty distances changes no bit.
func (h *SampledHistogram) MissRatio(capacityLines int64) float64 {
	if h.Total <= 0 {
		return 0
	}
	if capacityLines <= 0 {
		return 1
	}
	var hits float64
	for _, b := range h.Buckets {
		if b.Dist >= capacityLines {
			break
		}
		hits += b.Mass
	}
	return 1 - hits/h.Total
}

// DistinctLines estimates the trace's footprint: the cold mass is one
// first touch per distinct line, rescaled.
func (h *SampledHistogram) DistinctLines() float64 { return h.Cold }

// Percentile returns the smallest tracked distance d such that at
// least fraction p of the finite, tracked (rescaled) mass lies at
// distance <= d — the sampled working-set estimator.
func (h *SampledHistogram) Percentile(p float64) (int64, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("stackdist: percentile %g out of [0,1]", p)
	}
	var finite float64
	for _, b := range h.Buckets {
		finite += b.Mass
	}
	if finite <= 0 {
		return 0, fmt.Errorf("stackdist: no finite distances tracked")
	}
	target := p * finite
	if target <= 0 {
		return 0, nil // distance 0 already holds a zero share
	}
	var acc float64
	for _, b := range h.Buckets {
		acc += b.Mass
		if acc >= target {
			return b.Dist, nil
		}
	}
	return int64(h.MaxDistance - 1), nil
}

// mix64 is the profiler's line hash: xorshift-multiply-xorshift-
// multiply (the splitmix64 finaliser minus its last xorshift), a fast
// invertible 64-bit mixer. The filter consumes the TOP 24 bits, which
// the final multiply avalanches well; the dropped xorshift only
// repairs low-bit diffusion, and the table index (low bits) tolerates
// the multiplicative stride pattern — linear probing just needs the
// keys spread, not cryptographic. This function runs once per trace
// record, so its op count is the profiler's throughput floor; seeding
// happens by XOR before the mix.
//
//lint:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x
}

// lineTable maps sampled lines to tree node indices: open-addressed
// linear probing over parallel key/value slices, power-of-two
// capacity, backward-shift deletion. It exists instead of a Go map so
// the hot feed path is allocation-free and growth is an explicit,
// non-hot operation.
type lineTable struct {
	keys []uint64
	vals []int32 // tree node index; -1 = empty slot
	mask uint64
	live int
	seed uint64
}

// tableCapFor returns the initial table capacity for n tracked lines:
// the next power of two holding n at < 1/2 load.
func tableCapFor(n int) int {
	c := 8
	for c < 2*n {
		c *= 2
	}
	return c
}

// init sizes the table (capacity must be a power of two).
func (t *lineTable) init(capacity int, seed uint64) {
	t.keys = make([]uint64, capacity)
	t.vals = make([]int32, capacity)
	for i := range t.vals {
		t.vals[i] = -1
	}
	t.mask = uint64(capacity - 1)
	t.live = 0
	t.seed = seed
}

// nearFull reports whether the next insertion should wait for growth
// (load factor 3/4).
//
//lint:hotpath
func (t *lineTable) nearFull() bool {
	return uint64(t.live)*4 >= (t.mask+1)*3
}

// grow doubles the table and reinserts every entry in slot order
// (deterministic). Non-hot.
func (t *lineTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(2*len(oldKeys), t.seed)
	for i, v := range oldVals {
		if v >= 0 {
			t.put(oldKeys[i], mix64(oldKeys[i]^t.seed), v)
		}
	}
}

// get looks up line (h = mix64(line ^ seed), computed by the caller
// which already needed it for the sampling filter).
//
//lint:hotpath
func (t *lineTable) get(line uint64, h uint64) (int32, bool) {
	i := h & t.mask
	for {
		v := t.vals[i]
		if v < 0 {
			return 0, false
		}
		if t.keys[i] == line {
			return v, true
		}
		i = (i + 1) & t.mask
	}
}

// put inserts line -> idx; the caller guarantees capacity (nearFull
// checked before the hot run continues).
//
//lint:hotpath
func (t *lineTable) put(line uint64, h uint64, idx int32) {
	i := h & t.mask
	for t.vals[i] >= 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = line
	t.vals[i] = idx
	t.live++
}

// del removes line with the standard linear-probing backward-shift so
// no tombstones accumulate.
//
//lint:hotpath
func (t *lineTable) del(line uint64, h uint64) {
	i := h & t.mask
	for {
		if t.vals[i] < 0 {
			return // not present
		}
		if t.keys[i] == line {
			break
		}
		i = (i + 1) & t.mask
	}
	t.live--
	// Backward-shift: close the gap at i by pulling up any later entry
	// of the same probe cluster whose ideal slot precedes the gap.
	j := i
	for {
		t.vals[i] = -1
		for {
			j = (j + 1) & t.mask
			if t.vals[j] < 0 {
				return
			}
			k := mix64(t.keys[j]^t.seed) & t.mask
			// Entry j may stay iff its ideal slot k lies cyclically in
			// (i, j]; otherwise it belongs at or before the gap.
			if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
				break
			}
		}
		t.keys[i] = t.keys[j]
		t.vals[i] = t.vals[j]
		i = j
	}
}

// emptyDist marks a free massTable slot; distances are never negative.
const emptyDist = -1

// massTable accumulates the histogram's mass per distance:
// open-addressed linear probing over parallel key/mass slices,
// power-of-two capacity, no deletion. It replaces a MaxDistance-long
// dense array, of which a sampled profile fills a few hundred entries.
// Like lineTable it grows only between hot runs, and each distance's
// mass is summed in stream order, exactly as a dense bucket would be.
type massTable struct {
	dists []int64 // emptyDist = free slot
	mass  []float64
	mask  uint64
	live  int
}

// init sizes the table (capacity must be a power of two).
func (t *massTable) init(capacity int) {
	t.dists = make([]int64, capacity)
	t.mass = make([]float64, capacity)
	t.mask = uint64(capacity - 1)
	t.clear()
}

// clear empties the table in place.
func (t *massTable) clear() {
	for i := range t.dists {
		t.dists[i] = emptyDist
	}
	t.live = 0
}

// nearFull reports whether a new distance should wait for growth
// (load factor 3/4).
//
//lint:hotpath
func (t *massTable) nearFull() bool {
	return uint64(t.live)*4 >= (t.mask+1)*3
}

// grow doubles the table and reinserts every entry. Non-hot.
func (t *massTable) grow() {
	oldDists, oldMass := t.dists, t.mass
	t.init(2 * len(oldDists))
	for i, d := range oldDists {
		if d != emptyDist {
			t.add(d, oldMass[i])
		}
	}
}

// add credits w to distance d; the caller guarantees room (nearFull
// checked before the hot run continues).
//
//lint:hotpath
func (t *massTable) add(d int64, w float64) {
	i := mix64(uint64(d)) & t.mask
	for {
		switch t.dists[i] {
		case d:
			t.mass[i] += w
			return
		case emptyDist:
			t.dists[i] = d
			t.mass[i] = w
			t.live++
			return
		}
		i = (i + 1) & t.mask
	}
}

// buckets returns the table's entries in ascending distance.
func (t *massTable) buckets() []Bucket {
	out := make([]Bucket, 0, t.live)
	for i, d := range t.dists {
		if d != emptyDist {
			out = append(out, Bucket{Dist: d, Mass: t.mass[i]})
		}
	}
	slices.SortFunc(out, func(a, b Bucket) int { return cmp.Compare(a.Dist, b.Dist) })
	return out
}
