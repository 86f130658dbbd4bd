// Package stackdist computes LRU stack (reuse) distances over address
// traces and predicts miss-ratio curves from them — the analytical
// cache-modeling approach of the paper's reference [6] ("Fast Modeling
// of Shared Caches", Eklov et al., HiPEAC 2011), included here as the
// third, simulation-free way to generate reference curves alongside
// the trace-driven simulator (internal/simulate) and the Pirate
// itself.
//
// The stack distance of an access is the number of *distinct* lines
// touched since the previous access to the same line. For a
// fully-associative LRU cache of C lines, an access hits iff its stack
// distance is < C; the cumulative stack-distance histogram therefore
// *is* the miss-ratio curve of all capacities at once — that is the
// Mattson stack property the paper's Fig. 3 argument relies on.
//
// Distances are computed in O(N log N) with a Fenwick tree over access
// positions (the classic Bennett-Kruskal algorithm).
package stackdist

import (
	"fmt"
	"sort"

	"cachepirate/internal/trace"
)

// Infinite marks a cold (first-touch) access, whose stack distance is
// unbounded.
const Infinite = int64(-1)

// Histogram is a stack-distance distribution over line-granular
// accesses.
type Histogram struct {
	// Counts[d] is the number of accesses with stack distance d, for
	// d < len(Counts); deeper finite distances are folded into
	// Overflow.
	Counts []uint64
	// Overflow counts finite distances >= len(Counts).
	Overflow uint64
	// Cold counts first-touch (infinite-distance) accesses.
	Cold uint64
	// Total is the number of accesses analysed.
	Total uint64
}

// Analyze computes the stack-distance histogram of tr at line
// granularity (64-byte lines), tracking exact distances up to
// maxDistance lines.
func Analyze(tr *trace.Trace, maxDistance int) (*Histogram, error) {
	if maxDistance <= 0 {
		return nil, fmt.Errorf("stackdist: non-positive maxDistance %d", maxDistance)
	}
	h := &Histogram{Counts: make([]uint64, maxDistance)}
	n := tr.Len()
	if n == 0 {
		return h, nil
	}

	// Fenwick tree over access positions: tree[i] = 1 when position i
	// is the most recent access to its line. The map holds at most one
	// entry per distinct line, bounded by the trace length — pre-sizing
	// from it avoids the incremental rehash-and-copy growth.
	fen := newFenwick(n)
	last := make(map[uint64]int, n) // line -> last position

	for pos, r := range tr.Records {
		line := r.Addr >> 6
		h.Total++
		if prev, seen := last[line]; seen {
			// Distinct lines touched since prev = ones in (prev, pos).
			d := int64(fen.sum(pos-1) - fen.sum(prev))
			if d < int64(maxDistance) {
				h.Counts[d]++
			} else {
				h.Overflow++
			}
			fen.add(prev, -1)
		} else {
			h.Cold++
		}
		fen.add(pos, 1)
		last[line] = pos
	}
	return h, nil
}

// MissRatio returns the predicted miss ratio of a fully-associative
// LRU cache with capacity lines of capacity: the fraction of accesses
// whose stack distance is >= capacity (cold accesses always miss).
func (h *Histogram) MissRatio(capacityLines int64) float64 {
	if h.Total == 0 {
		return 0
	}
	if capacityLines <= 0 {
		return 1
	}
	var hits uint64
	limit := capacityLines
	if limit > int64(len(h.Counts)) {
		limit = int64(len(h.Counts))
	}
	for d := int64(0); d < limit; d++ {
		hits += h.Counts[d]
	}
	// Distances beyond the tracked range are misses for any capacity
	// within the range, as are cold accesses.
	return 1 - float64(hits)/float64(h.Total)
}

// MissRatioCurve evaluates MissRatio at each capacity (in bytes,
// 64-byte lines).
func (h *Histogram) MissRatioCurve(capacities []int64) []float64 {
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		out[i] = h.MissRatio(c / 64)
	}
	return out
}

// ColdRatio returns the fraction of first-touch accesses.
func (h *Histogram) ColdRatio() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Cold) / float64(h.Total)
}

// Percentile returns the smallest tracked distance d such that at
// least p (0..1) of the *finite, tracked* accesses have distance <= d.
// It is the working-set size estimator: Percentile(0.9) is how many
// distinct lines cover 90% of reuses.
func (h *Histogram) Percentile(p float64) (int64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stackdist: percentile %g out of [0,1]", p)
	}
	var finite uint64
	for _, c := range h.Counts {
		finite += c
	}
	if finite == 0 {
		return 0, fmt.Errorf("stackdist: no finite distances tracked")
	}
	target := uint64(float64(p * float64(finite))) // rounded: no FMA into the conversion
	var acc uint64
	for d, c := range h.Counts {
		acc += c
		if acc >= target {
			return int64(d), nil
		}
	}
	return int64(len(h.Counts) - 1), nil
}

// Merge folds other into h (histograms must have equal Counts length).
func (h *Histogram) Merge(other *Histogram) error {
	if len(h.Counts) != len(other.Counts) {
		return fmt.Errorf("stackdist: merging histograms of different depth (%d vs %d)",
			len(h.Counts), len(other.Counts))
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Overflow += other.Overflow
	h.Cold += other.Cold
	h.Total += other.Total
	return nil
}

// SetAssociativeMissRatio approximates the miss ratio of a W-way,
// S-set LRU cache from the fully-associative histogram using the
// standard binomial "independent sets" correction: an access with
// fully-associative distance d maps to an expected per-set distance of
// d/S, and hits iff that is < W. We evaluate it as a hard threshold at
// S*W lines scaled by an occupancy factor; for the large caches the
// experiments use this converges to the fully-associative result, and
// tests quantify the deviation against the real simulator.
func (h *Histogram) SetAssociativeMissRatio(sets, ways int64) float64 {
	return h.MissRatio(sets * ways)
}

// fenwick is a binary indexed tree of ints.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

// add adds v at position i (0-based).
func (f *fenwick) add(i, v int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += v
	}
}

// sum returns the prefix sum of positions [0, i] (0-based); sum(-1)=0.
func (f *fenwick) sum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// Distances returns the raw per-access distances of tr (Infinite for
// cold accesses) — an O(N log N) helper for tests and analyses that
// need more than the histogram.
func Distances(tr *trace.Trace) []int64 {
	n := tr.Len()
	out := make([]int64, n)
	fen := newFenwick(n)
	last := make(map[uint64]int, n)
	for pos, r := range tr.Records {
		line := r.Addr >> 6
		if prev, seen := last[line]; seen {
			out[pos] = int64(fen.sum(pos-1) - fen.sum(prev))
			fen.add(prev, -1)
		} else {
			out[pos] = Infinite
		}
		fen.add(pos, 1)
		last[line] = pos
	}
	return out
}

// WorkingSetKnees extracts candidate working-set sizes (in bytes) from
// the histogram: distances where the cumulative hit mass jumps by more
// than minJump of all finite accesses between consecutive power-of-two
// buckets. It is a small analysis utility for characterising suite
// benchmarks (e.g. recovering Cigar's 6MB knee without running the
// machine).
func (h *Histogram) WorkingSetKnees(minJump float64) []int64 {
	var finite uint64
	for _, c := range h.Counts {
		finite += c
	}
	if finite == 0 {
		return nil
	}
	var knees []int64
	prevCum := uint64(0)
	cum := uint64(0)
	bucketStart := 0
	for d := 1; d <= len(h.Counts); d *= 2 {
		for i := bucketStart; i < d && i < len(h.Counts); i++ {
			cum += h.Counts[i]
		}
		bucketStart = d
		jump := float64(cum-prevCum) / float64(finite)
		if jump >= minJump && d > 1 {
			knees = append(knees, int64(d)*64)
		}
		prevCum = cum
	}
	sort.Slice(knees, func(i, j int) bool { return knees[i] < knees[j] })
	return knees
}
