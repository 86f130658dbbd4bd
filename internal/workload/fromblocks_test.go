package workload

import (
	"bytes"
	"fmt"
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

// blocksSource serves tr as a BlockSource: the in-memory Replayer when
// frame is 0, else a streamed Reader over tr encoded frame records per
// frame.
func blocksSource(t *testing.T, tr *trace.Trace, frame int) trace.BlockSource {
	t.Helper()
	if frame == 0 {
		return trace.NewReplayer(tr, false)
	}
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, frame); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	})
	return r
}

// TestFromBlocksMatchesFromTrace pins FromBlocks, the one looping trace
// generator, against the records themselves: op i is record i mod n,
// over three passes and through a Reset in mid-pass, whether the
// records come from memory or from a stream framed 1, 7 or 4096
// records at a time (a 1-record trace and traces shorter than one
// frame included).
func TestFromBlocksMatchesFromTrace(t *testing.T) {
	for _, n := range []int{1, 5, 1000} {
		tr := blocksTestTrace(n)
		for _, frame := range []int{0, 1, 7, 4096} {
			t.Run(fmt.Sprintf("n=%d/frame=%d", n, frame), func(t *testing.T) {
				g := NewFromBlocks("got", blocksSource(t, tr, frame), 1, 0)
				check := func(count int) {
					t.Helper()
					for i := 0; i < count; i++ {
						r := tr.Records[i%n]
						want := Op{NInstr: r.NInstr, Addr: r.Addr, Write: r.Write}
						if got := g.Next(); got != want {
							t.Fatalf("op %d: got %+v, want %+v", i, got, want)
						}
					}
				}
				check(3 * n)   // every wrap must be seamless
				check(n/2 + 1) // stop in mid-pass
				g.Reset(99)    // the seed is ignored for traces
				check(3 * n)
			})
		}
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
