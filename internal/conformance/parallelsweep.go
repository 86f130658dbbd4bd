package conformance

import (
	"bytes"
	"fmt"

	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// CheckParallelSweepEquivalence extends the streamed-sweep gate over
// the sweep width of the multi-core replay: how many replica groups
// the fused engine replays at once, which also caps a group's replica
// count. The serial in-memory fused sweep is the oracle; the same
// config is then swept wide (a) over in-memory blocks and (b) over
// streaming Readers, each group's decoding one frame ahead on its own
// goroutine — every curve must be Float64bits-identical. Width is a
// wall-clock choice, never a results choice.
func CheckParallelSweepEquivalence(cfg simulate.Config, tr *trace.Trace, frameRecords, sweepWorkers int) error {
	serial := cfg
	serial.Workers = 1
	want, err := simulate.Sweep(serial, tr)
	if err != nil {
		return fmt.Errorf("conformance: serial fused sweep: %w", err)
	}

	wide := cfg
	wide.Workers = sweepWorkers
	got, err := simulate.Sweep(wide, tr)
	if err != nil {
		return fmt.Errorf("conformance: wide sweep (j=%d): %w", sweepWorkers, err)
	}
	if err := CurvesIdentical(want, got); err != nil {
		return fmt.Errorf("conformance: wide sweep (j=%d) diverges from serial fused: %w", sweepWorkers, err)
	}

	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, frameRecords); err != nil {
		return fmt.Errorf("conformance: encoding v2 stream: %w", err)
	}
	data := buf.Bytes()

	got, err = simulate.SweepStream(wide, func() (trace.BlockSource, error) {
		return trace.NewReader(bytes.NewReader(data), trace.ReaderOptions{})
	})
	if err != nil {
		return fmt.Errorf("conformance: wide streamed sweep (j=%d): %w", sweepWorkers, err)
	}
	if err := CurvesIdentical(want, got); err != nil {
		return fmt.Errorf("conformance: wide streamed sweep (j=%d, frame %d) diverges from serial fused: %w", sweepWorkers, frameRecords, err)
	}

	return nil
}
