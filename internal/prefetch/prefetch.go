// Package prefetch implements the hardware prefetcher models used by the
// simulated memory hierarchy: next-line and multi-stream sequential.
// Prefetchers observe the demand line-address stream at the
// last-level cache and propose line addresses to fetch ahead of demand.
//
// The paper (§I-B) distinguishes *fetches* (lines brought from memory,
// including prefetches) from *misses* (demand misses); these models are
// what makes the two differ, e.g. the 8x fetch/miss gap the paper reports
// for 470.lbm.
package prefetch

// Prefetcher observes demand accesses and proposes prefetches.
//
// Observe is called with the line address (byte address / line size) of
// each demand access that reached the observed cache level, and whether
// that access missed. It returns line addresses to prefetch, which the
// hierarchy fills if they are not already resident.
type Prefetcher interface {
	Observe(lineAddr uint64, miss bool) []uint64
	// Reset clears all training state.
	Reset()
	// Name identifies the prefetcher for reports.
	Name() string
}

// None is a disabled prefetcher; fetches equal misses with it.
type None struct{}

// Observe never proposes prefetches.
func (None) Observe(uint64, bool) []uint64 { return nil }

// Reset is a no-op.
func (None) Reset() {}

// Name returns "none".
func (None) Name() string { return "none" }

// NextLine prefetches the immediately following line on every miss.
type NextLine struct {
	buf [1]uint64
}

// NewNextLine returns a next-line prefetcher.
func NewNextLine() *NextLine { return &NextLine{} }

// Observe proposes lineAddr+1 on every demand miss.
func (p *NextLine) Observe(lineAddr uint64, miss bool) []uint64 {
	if !miss {
		return nil
	}
	p.buf[0] = lineAddr + 1
	return p.buf[:]
}

// Reset is a no-op; NextLine is stateless.
func (p *NextLine) Reset() {}

// Name returns "nextline".
func (p *NextLine) Name() string { return "nextline" }
