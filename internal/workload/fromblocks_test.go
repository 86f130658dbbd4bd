package workload

import (
	"bytes"
	"math/rand"
	"testing"

	"cachepirate/internal/trace"
)

// blocksTestTrace builds a deterministic trace for FromBlocks tests.
func blocksTestTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	tr := &trace.Trace{Records: make([]trace.Record, n)}
	for i := range tr.Records {
		tr.Records[i] = trace.Record{
			NInstr: uint32(rng.Intn(16)),
			Addr:   uint64(rng.Intn(1<<14)) << 6,
			Write:  rng.Intn(4) == 0,
		}
	}
	return tr
}

// TestFromBlocksMatchesFromTrace pins the bit-identity contract at the
// generator layer: the op stream out of a streamed BlockSource —
// including the wrap at end of pass — is exactly the op stream
// FromTrace produces from the same records in memory.
func TestFromBlocksMatchesFromTrace(t *testing.T) {
	tr := blocksTestTrace(1000)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 64); err != nil { // many block boundaries per pass
		t.Fatal(err)
	}

	sources := map[string]trace.BlockSource{
		"replayer": trace.NewReplayer(tr, false),
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	sources["reader"] = r

	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			ref := NewFromTrace("ref", tr, 1, 0)
			got := NewFromBlocks("got", src, 1, 0)
			// 2.5 passes: the wrap must be seamless and positioned
			// identically in both streams.
			for i := 0; i < 2500; i++ {
				if g, w := got.Next(), ref.Next(); g != w {
					t.Fatalf("op %d: streamed %+v, in-memory %+v", i, g, w)
				}
			}
		})
	}
}

// TestFromBlocksReset pins that Reset restarts the stream mid-block.
func TestFromBlocksReset(t *testing.T) {
	tr := blocksTestTrace(100)
	g := NewFromBlocks("reset", trace.NewReplayer(tr, false), 1, 0)
	first := make([]Op, 10)
	for i := range first {
		first[i] = g.Next()
	}
	for i := 0; i < 37; i++ { // leave the cursor mid-block
		g.Next()
	}
	g.Reset(99) // seed is ignored for traces
	for i := range first {
		if got := g.Next(); got != first[i] {
			t.Fatalf("op %d after Reset = %+v, want %+v", i, got, first[i])
		}
	}
}

// TestFromBlocksEmptyPanics pins the generator contract for a source
// with no records: Next cannot return anything, so it must panic
// rather than loop forever.
func TestFromBlocksEmptyPanics(t *testing.T) {
	g := NewFromBlocks("empty", trace.NewReplayer(&trace.Trace{}, false), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Next on an empty source did not panic")
		}
	}()
	g.Next()
}

// TestFromBlocksNextAllocFree extends the machine package's generator
// alloc gates to the streamed path: steady-state Next — including the
// refill and rewind at block and pass boundaries — must not allocate.
func TestFromBlocksNextAllocFree(t *testing.T) {
	tr := blocksTestTrace(512)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 128); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	g := NewFromBlocks("alloc", r, 1, 0)
	for i := 0; i < 2*tr.Len(); i++ { // warm: grow the reader's block buffers
		g.Next()
	}
	if avg := testing.AllocsPerRun(3000, func() { g.Next() }); avg != 0 {
		t.Errorf("FromBlocks.Next allocates %.2f allocs/op, want 0", avg)
	}
}
