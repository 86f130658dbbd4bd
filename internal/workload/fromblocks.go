package workload

import (
	"fmt"

	"cachepirate/internal/trace"
)

// FromBlocks adapts a trace.BlockSource into a looping Generator: the
// one way to replay a trace on a core, from memory (trace.Replayer) or
// from a stream (trace.Reader). Each exhausted pass triggers a Rewind,
// so the op stream a core sees does not depend on where the records
// live — bit-identical curves are pinned in internal/conformance.
//
// Generators are infallible by interface (Next returns an Op, not an
// error), so stream failures mid-replay panic: a decode error under a
// running simulation is as unrecoverable as a corrupt in-memory trace.
type FromBlocks struct {
	name string
	src  trace.BlockSource
	blk  []trace.Record
	pos  int
	mlp  float64
	wss  int64
}

// NewFromBlocks wraps src as a looping generator with an explicit MLP
// hint (traces carry none).
func NewFromBlocks(name string, src trace.BlockSource, mlp float64, wss int64) *FromBlocks {
	if mlp < 1 {
		mlp = 1
	}
	return &FromBlocks{name: name, src: src, mlp: mlp, wss: wss}
}

// Next returns the next replayed op, refilling from the source as
// blocks drain and rewinding at end of pass.
//
//lint:hotpath
func (f *FromBlocks) Next() Op {
	for f.pos >= len(f.blk) {
		f.refill()
	}
	r := f.blk[f.pos]
	f.pos++
	return Op{NInstr: r.NInstr, Addr: r.Addr, Write: r.Write}
}

// refill fetches the next non-empty block, rewinding once at end of
// pass. Two consecutive empty passes mean the source holds no records
// at all, which a generator cannot represent. Reachable from the
// hotpath Next, so failures panic with the bare error (panic is the
// one escape hatch the 0-alloc gate does not charge).
func (f *FromBlocks) refill() {
	f.pos = 0
	for attempt := 0; attempt < 2; attempt++ {
		blk, err := f.src.NextBlock()
		if err != nil {
			panic(err)
		}
		if len(blk) > 0 {
			f.blk = blk
			return
		}
		if err := f.src.Rewind(); err != nil {
			panic(err)
		}
	}
	panic("workload: trace stream is empty")
}

// Reset rewinds the stream to the first record (the seed is ignored;
// traces are fixed).
func (f *FromBlocks) Reset(uint64) {
	if err := f.src.Rewind(); err != nil {
		panic(fmt.Sprintf("workload %s: trace rewind: %v", f.name, err))
	}
	f.blk = nil
	f.pos = 0
}

// Name returns the workload name.
func (f *FromBlocks) Name() string { return f.name }

// MLP returns the configured overlap hint.
func (f *FromBlocks) MLP() float64 { return f.mlp }

// WorkingSet returns the configured nominal working set.
func (f *FromBlocks) WorkingSet() int64 { return f.wss }
