package conformance

import (
	"bytes"
	"fmt"

	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// CheckStreamEquivalence is the streamed-sweep identity gate. The
// serial in-memory sweep of tr is the oracle; the same config is then
// swept width groups at a time (a) over in-memory blocks, unless width
// is 1 and that sweep is the oracle, and (b) over streaming Readers of
// tr encoded in the framed v2 format with frameRecords-record frames,
// each group's decoding ahead on its own goroutine. Every curve must be
// Float64bits-identical. A small frameRecords against a large trace
// makes the streamed replay cross many frame boundaries, so any state
// the decoder failed to carry across frames (delta chain restarts,
// checksum chaining, rewind between passes) breaks the comparison.
// Width and streaming are wall-clock and memory choices, never results
// choices.
func CheckStreamEquivalence(cfg simulate.Config, tr *trace.Trace, frameRecords, width int) error {
	serial := cfg
	serial.Workers = 1
	want, err := simulate.Sweep(serial, tr)
	if err != nil {
		return fmt.Errorf("conformance: serial sweep: %w", err)
	}

	wide := cfg
	wide.Workers = width
	if width != 1 {
		got, err := simulate.Sweep(wide, tr)
		if err != nil {
			return fmt.Errorf("conformance: wide sweep (j=%d): %w", width, err)
		}
		if err := CurvesIdentical(want, got); err != nil {
			return fmt.Errorf("conformance: wide sweep (j=%d) diverges from serial: %w", width, err)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, frameRecords); err != nil {
		return fmt.Errorf("conformance: encoding v2 stream: %w", err)
	}
	data := buf.Bytes()
	got, err := simulate.SweepStream(wide, func() (trace.BlockSource, error) {
		return trace.NewReader(bytes.NewReader(data), trace.ReaderOptions{})
	})
	if err != nil {
		return fmt.Errorf("conformance: streamed sweep (j=%d): %w", width, err)
	}
	if err := CurvesIdentical(want, got); err != nil {
		return fmt.Errorf("conformance: streamed sweep (j=%d, frame %d records) diverges from serial in-memory: %w", width, frameRecords, err)
	}
	return nil
}
