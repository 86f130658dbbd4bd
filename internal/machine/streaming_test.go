package machine

import (
	"bytes"
	"testing"

	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// TestAttachBlocksMatchesFromTrace pins AttachBlocks at the machine
// layer: a core replaying a trace streamed through the out-of-core
// Reader (frames far smaller than the trace, background prefetch on)
// must produce exactly the counters of a core replaying the same
// trace from memory — every cycle, fetch and writeback identical.
func TestAttachBlocksMatchesFromTrace(t *testing.T) {
	cfg := NehalemConfigNoPrefetch()
	tr := randomTrace(20_000, 2*uint64(cfg.L3.Size))
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 512); err != nil {
		t.Fatal(err)
	}

	ref := MustNew(cfg)
	ref.MustAttach(0, workload.NewFromTrace("trace", tr, 1, 0))
	const steps = 50_000 // > trace length: the pass wrap is covered
	ref.RunSteps(steps)

	got := MustNew(cfg)
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := got.AttachBlocks(0, "trace", r, 1); err != nil {
		t.Fatal(err)
	}
	got.RunSteps(steps)

	if g, w := got.ReadCounters(0), ref.ReadCounters(0); g != w {
		t.Errorf("streamed counters diverge from in-memory replay:\n got %+v\nwant %+v", g, w)
	}
}
