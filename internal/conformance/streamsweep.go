package conformance

import (
	"bytes"
	"fmt"

	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// CheckStreamEquivalence encodes tr into the framed v2 format with the
// given frame size, sweeps it through the out-of-core streaming path
// (trace.Reader, block budget = one frame), and verifies
// the curve is bit-identical to the in-memory sweep of the same
// records. A small frameRecords against a large trace makes the
// streamed replay cross many block boundaries — the acceptance shape
// is a trace ≥ 10× the block budget — so any state the decoder failed
// to carry across frames (delta chain restarts, checksum chaining,
// rewind between passes) breaks the comparison. Like the engine
// matrix, the comparison is exact: streaming is a memory-footprint
// choice, never a results choice.
func CheckStreamEquivalence(cfg simulate.Config, tr *trace.Trace, frameRecords int) error {
	want, err := simulate.Sweep(cfg, tr)
	if err != nil {
		return fmt.Errorf("conformance: in-memory sweep: %w", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, frameRecords); err != nil {
		return fmt.Errorf("conformance: encoding v2 stream: %w", err)
	}
	data := buf.Bytes()
	got, err := simulate.SweepStream(cfg, func() (trace.BlockSource, error) {
		return trace.NewReader(bytes.NewReader(data), trace.ReaderOptions{})
	})
	if err != nil {
		return fmt.Errorf("conformance: streamed sweep: %w", err)
	}
	if err := CurvesIdentical(want, got); err != nil {
		return fmt.Errorf("conformance: streamed sweep diverges from in-memory (frame %d records): %w", frameRecords, err)
	}
	return nil
}
