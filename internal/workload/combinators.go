package workload

import (
	"fmt"

	"cachepirate/internal/stats"
	"cachepirate/internal/trace"
)

// Mix interleaves component generators with fixed probabilities,
// producing the multi-knee fetch-ratio curves of real applications
// (each component contributes its own working-set knee).
type Mix struct {
	name string
	gens []Generator
	cdf  []float64
	mlp  float64
	wss  int64
	seed uint64
	rng  *stats.RNG
}

// Component weights one generator inside a Mix.
type Component struct {
	Gen    Generator
	Weight float64
}

// NewMix builds a probabilistic mixture. MLP and the nominal working
// set are the weighted averages of the components'.
func NewMix(name string, seed uint64, comps ...Component) *Mix {
	if len(comps) == 0 {
		panic("workload mix: no components")
	}
	if seed == 0 {
		seed = 1
	}
	var total float64
	for _, c := range comps {
		if c.Weight <= 0 {
			panic(fmt.Sprintf("workload mix %s: non-positive weight %g", name, c.Weight))
		}
		total += c.Weight
	}
	m := &Mix{name: name, seed: seed, rng: stats.NewRNG(seed)}
	acc := 0.0
	for _, c := range comps {
		acc += c.Weight / total
		m.cdf = append(m.cdf, acc)
		m.gens = append(m.gens, c.Gen)
		m.mlp += float64(c.Weight / total * c.Gen.MLP()) // rounded: no FMA
		m.wss += c.Gen.WorkingSet()
	}
	return m
}

// Next draws a component by weight and returns its next op.
func (m *Mix) Next() Op {
	u := m.rng.Float64()
	for i, c := range m.cdf {
		if u < c {
			return m.gens[i].Next()
		}
	}
	return m.gens[len(m.gens)-1].Next()
}

// Reset reseeds the mixture and every component.
func (m *Mix) Reset(seed uint64) {
	if seed == 0 {
		seed = m.seed
	}
	m.rng.Reseed(seed)
	for i, g := range m.gens {
		g.Reset(seed + uint64(i) + 1)
	}
}

// Name returns the mixture name.
func (m *Mix) Name() string { return m.name }

// MLP returns the weighted-average overlap hint.
func (m *Mix) MLP() float64 { return m.mlp }

// WorkingSet returns the sum of component working sets.
func (m *Mix) WorkingSet() int64 { return m.wss }

// Phased cycles through component generators, running each for a fixed
// instruction budget — program phases, the effect behind 403.gcc's 23%
// error at the paper's 1B measurement interval (Table III).
type Phased struct {
	name   string
	phases []Phase
	cur    int
	left   uint64
	mlp    float64
	wss    int64
}

// Phase is one phase of a Phased workload.
type Phase struct {
	Gen    Generator
	Instrs uint64 // phase length in instructions
}

// NewPhased builds a phase-cycling workload.
func NewPhased(name string, phases ...Phase) *Phased {
	if len(phases) == 0 {
		panic("workload phased: no phases")
	}
	p := &Phased{name: name, phases: phases}
	var total float64
	for _, ph := range phases {
		if ph.Instrs == 0 {
			panic(fmt.Sprintf("workload phased %s: zero-length phase", name))
		}
		total += float64(ph.Instrs)
		if ph.Gen.WorkingSet() > p.wss {
			p.wss = ph.Gen.WorkingSet()
		}
	}
	for _, ph := range phases {
		p.mlp += float64(float64(ph.Instrs) / total * ph.Gen.MLP()) // rounded: no FMA
	}
	p.left = phases[0].Instrs
	return p
}

// Next returns the next op, switching phases when the current one's
// instruction budget runs out.
func (p *Phased) Next() Op {
	op := p.phases[p.cur].Gen.Next()
	cost := uint64(op.NInstr) + 1
	if cost >= p.left {
		p.cur = (p.cur + 1) % len(p.phases)
		p.left = p.phases[p.cur].Instrs
	} else {
		p.left -= cost
	}
	return op
}

// Reset restarts at phase 0 and reseeds all phases.
func (p *Phased) Reset(seed uint64) {
	p.cur = 0
	p.left = p.phases[0].Instrs
	for i, ph := range p.phases {
		ph.Gen.Reset(seed + uint64(i) + 1)
	}
}

// Name returns the workload name.
func (p *Phased) Name() string { return p.name }

// MLP returns the phase-length-weighted overlap hint.
func (p *Phased) MLP() float64 { return p.mlp }

// WorkingSet returns the largest phase working set.
func (p *Phased) WorkingSet() int64 { return p.wss }

// ComputeBound touches a tiny buffer with many instructions between
// accesses (453.povray / 454.calculix-like: fetch ratio ~0, flat CPI).
type ComputeBound struct {
	inner *Sequential
}

// NewComputeBound builds a compute-bound workload: span bytes of data
// (should fit L1/L2), nInstr instructions per access.
func NewComputeBound(name string, span int64, nInstr uint32) *ComputeBound {
	return &ComputeBound{inner: NewSequential(SequentialConfig{
		Name: name, Span: span, Elem: LineSize, NInstr: nInstr, MLP: 4,
	})}
}

// Next returns the next op.
func (c *ComputeBound) Next() Op { return c.inner.Next() }

// Reset restarts the stream.
func (c *ComputeBound) Reset(seed uint64) { c.inner.Reset(seed) }

// Name returns the workload name.
func (c *ComputeBound) Name() string { return c.inner.Name() }

// MLP returns the overlap hint.
func (c *ComputeBound) MLP() float64 { return c.inner.MLP() }

// WorkingSet returns the buffer size.
func (c *ComputeBound) WorkingSet() int64 { return c.inner.WorkingSet() }

// TraceSource adapts a Generator to trace.Source for capture.
type TraceSource struct {
	Gen Generator
}

// NextRecord converts the generator's next op into a trace record.
func (s TraceSource) NextRecord() trace.Record {
	op := s.Gen.Next()
	return trace.Record{NInstr: op.NInstr, Addr: op.Addr, Write: op.Write}
}
