package machine

import (
	"bytes"
	"fmt"
	"testing"

	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// recordLoop is the reference generator for AttachBlocks: op i is
// record i mod n, read straight from the slice.
type recordLoop struct {
	recs []trace.Record
	i    int
}

func (g *recordLoop) Next() workload.Op {
	r := g.recs[g.i%len(g.recs)]
	g.i++
	return workload.Op{NInstr: r.NInstr, Addr: r.Addr, Write: r.Write}
}
func (g *recordLoop) Reset(uint64)      { g.i = 0 }
func (g *recordLoop) Name() string      { return "records" }
func (g *recordLoop) MLP() float64      { return 1 }
func (g *recordLoop) WorkingSet() int64 { return 0 }

// TestAttachBlocksMatchesFromTrace pins AttachBlocks at the machine
// layer: a core replaying a trace from memory (Replayer) or streamed
// through the out-of-core Reader (frames of 1, 7 and 4096 records)
// must produce exactly the counters of a core fed record i mod n
// directly, over three passes — every cycle, fetch and writeback
// identical.
func TestAttachBlocksMatchesFromTrace(t *testing.T) {
	cfg := NehalemConfigNoPrefetch()
	tr := randomTrace(5_000, 2*uint64(cfg.L3.Size))
	steps := 3 * tr.Len()

	ref := MustNew(cfg)
	ref.MustAttach(0, &recordLoop{recs: tr.Records})
	ref.RunSteps(steps)

	for _, frame := range []int{0, 1, 7, 4096} { // 0: the in-memory Replayer
		t.Run(fmt.Sprintf("frame=%d", frame), func(t *testing.T) {
			var src trace.BlockSource = trace.NewReplayer(tr, false)
			if frame > 0 {
				var buf bytes.Buffer
				if err := tr.WriteV2Frames(&buf, frame); err != nil {
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
				src = r
			}
			got := MustNew(cfg)
			if err := got.AttachBlocks(0, "trace", src, 1); err != nil {
				t.Fatal(err)
			}
			got.RunSteps(steps)
			if g, w := got.ReadCounters(0), ref.ReadCounters(0); g != w {
				t.Errorf("replayed counters diverge from the records:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}
