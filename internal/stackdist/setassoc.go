package stackdist

import (
	"fmt"

	"cachepirate/internal/trace"
)

// SetAssocHistogram is the per-set LRU stack-depth distribution of a
// line stream over a fixed set geometry: Depths[d] counts accesses
// whose line sat at recency depth d (0 = most recent) of its set's LRU
// stack when touched. By Mattson stack inclusion, a W-way LRU cache
// with the same sets holds exactly the top W entries of every per-set
// stack, so the histogram is the exact hit/miss behaviour of *every*
// way count up to MaxWays at once: an access hits a W-way cache iff
// its depth is < W.
type SetAssocHistogram struct {
	Sets    int
	MaxWays int
	// Depths[d] counts accesses found at per-set stack depth d.
	Depths []uint64
	// Absent counts accesses whose line was not in the top MaxWays of
	// its set's stack — first touches and reuses beyond the deepest
	// tracked cache, misses at every tracked way count alike.
	Absent uint64
	// Total is the number of accesses analysed.
	Total uint64
}

// SetAssocProfiler runs the exact per-set Mattson analysis
// incrementally: the recency stacks live in one pre-sized contiguous
// block that is reused across Feed calls (and across traces, via
// Reset), so the per-record path — the exact pass every analytic
// estimate is benchmarked against — allocates nothing
// (TestSetAssocFeedAllocFree gates it with testing.AllocsPerRun).
type SetAssocProfiler struct {
	sets      int
	maxWays   int
	lineShift uint
	pow2      bool
	mask      uint64
	// stacks[set*maxWays : (set+1)*maxWays] is set's recency stack,
	// most recent first. A slot no line has reached yet holds the
	// set's emptyTag, which no access to that set can carry: a scan
	// needs no live depth, and st[0] == tag alone proves a depth-0 hit.
	stacks []uint64
	depths []uint64
	absent uint64
	total  uint64
}

// NewSetAssocProfiler pre-sizes a profiler for the given geometry. The
// set mapping mirrors cache.Cache exactly: the line tag is
// addr >> lineShift, and the set index is a mask for power-of-two set
// counts, a modulo otherwise. One set with byte-sized lines is
// rejected: every 64-bit word is then a possible tag, and the stacks
// need one that is not (emptyTag).
func NewSetAssocProfiler(sets, maxWays int, lineShift uint) (*SetAssocProfiler, error) {
	if sets <= 0 {
		return nil, fmt.Errorf("stackdist: non-positive set count %d", sets)
	}
	if maxWays <= 0 {
		return nil, fmt.Errorf("stackdist: non-positive way count %d", maxWays)
	}
	if sets == 1 && lineShift == 0 {
		return nil, fmt.Errorf("stackdist: one set of 1-byte lines leaves no tag free to mark an empty stack slot")
	}
	p := &SetAssocProfiler{
		sets:      sets,
		maxWays:   maxWays,
		lineShift: lineShift,
		pow2:      sets&(sets-1) == 0,
		mask:      uint64(sets - 1),
		stacks:    make([]uint64, sets*maxWays),
		depths:    make([]uint64, maxWays),
	}
	p.Reset()
	return p, nil
}

// emptyTag is the tag an unreached slot of set's stack holds. Tags are
// addr >> lineShift, so with a non-zero shift the all-ones word is out
// of range; with byte lines, a tag of the next set maps elsewhere.
func (p *SetAssocProfiler) emptyTag(set int) uint64 {
	if p.lineShift > 0 {
		return ^uint64(0)
	}
	return uint64((set + 1) % p.sets)
}

// Feed replays a block of records through the per-set recency stacks.
// This is the exact-Mattson hot loop, with zero allocations. A record
// whose line is already its set's most recent (depth 0: 55% of the
// records or more on 29 of the 31 suite workloads) costs one compare.
// Any other record
// moves its line to the front in one pass that shifts each slot down
// until it meets the line's old slot (a hit at that depth) or the
// bottom (a miss: the least recent line drops out). The depth-0, miss
// and record counters are kept in locals and added once per block.
//
//lint:hotpath
func (p *SetAssocProfiler) Feed(blk []trace.Record) {
	maxWays := p.maxWays
	stacks, depths := p.stacks, p.depths
	shift, mask, sets, pow2 := p.lineShift, p.mask, uint64(p.sets), p.pow2
	var mru, absent uint64
	for i := range blk {
		tag := blk[i].Addr >> shift
		var si uint64
		if pow2 {
			si = tag & mask
		} else {
			si = tag % sets
		}
		st := stacks[int(si)*maxWays : int(si)*maxWays+maxWays]
		if st[0] == tag {
			mru++
			continue
		}
		prev := st[0]
		st[0] = tag
		d := 1
		for ; d < len(st); d++ {
			cur := st[d]
			st[d] = prev
			if cur == tag {
				break
			}
			prev = cur
		}
		if d < len(st) {
			depths[d]++
		} else {
			absent++
		}
	}
	depths[0] += mru
	p.absent += absent
	p.total += uint64(len(blk))
}

// FeedSource drains a BlockSource through Feed — the out-of-core exact
// pass: one streamed replay, O(sets*ways) memory.
func (p *SetAssocProfiler) FeedSource(src trace.BlockSource) error {
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

// Histogram snapshots the depth distribution accumulated so far.
func (p *SetAssocProfiler) Histogram() *SetAssocHistogram {
	h := &SetAssocHistogram{
		Sets:    p.sets,
		MaxWays: p.maxWays,
		Depths:  make([]uint64, p.maxWays),
		Absent:  p.absent,
		Total:   p.total,
	}
	copy(h.Depths, p.depths)
	return h
}

// Reset empties the stacks and clears the counters in place, keeping
// the pooled backing arrays, so one profiler serves many traces. Every
// slot gets its set's emptyTag back: a stale most-recent tag left from
// the previous trace would count as a depth-0 hit.
func (p *SetAssocProfiler) Reset() {
	for set := 0; set < p.sets; set++ {
		empty := p.emptyTag(set)
		st := p.stacks[set*p.maxWays : (set+1)*p.maxWays]
		for i := range st {
			st[i] = empty
		}
	}
	clear(p.depths)
	p.absent, p.total = 0, 0
}

// Hits returns the exact demand-hit count of a ways-way, Sets-set LRU
// cache over the analysed stream (stack inclusion: depth < ways hits).
func (h *SetAssocHistogram) Hits(ways int) (uint64, error) {
	if ways <= 0 || ways > h.MaxWays {
		return 0, fmt.Errorf("stackdist: way count %d outside tracked range 1..%d", ways, h.MaxWays)
	}
	var hits uint64
	for d := 0; d < ways; d++ {
		hits += h.Depths[d]
	}
	return hits, nil
}

// MissRatio returns the exact miss ratio of a ways-way cache.
func (h *SetAssocHistogram) MissRatio(ways int) (float64, error) {
	hits, err := h.Hits(ways)
	if err != nil {
		return 0, err
	}
	if h.Total == 0 {
		return 0, nil
	}
	return 1 - float64(hits)/float64(h.Total), nil
}
