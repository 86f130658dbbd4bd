package simulate

import (
	"bytes"
	"fmt"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/trace"
)

// BenchmarkSweepFusedWorkers is the multi-core replay scaling table:
// the streamed fused sweep on the BenchmarkSweepSerial workload (60k
// records, 16 sizes) with j replica groups replaying at once, each
// decoding its own source. The curve is bit-identical at every width
// (internal/conformance), so the only thing that may move is
// wall-clock; compare j=1 ÷ j=N within one invocation, and expect
// j > nproc to read slower than j = nproc (one decode per group).
func BenchmarkSweepFusedWorkers(b *testing.B) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 60000)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, trace.DefaultFrameRecords); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			cfg := benchSweepConfig(cache.Nehalem, EngineFused)
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := SweepStream(cfg, func() (trace.BlockSource, error) {
					return trace.NewReader(bytes.NewReader(data), trace.ReaderOptions{})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepFusedWorkersParallelDecode composes both axes: every
// group reading through its own parallel frame decoder, the full
// cachesim -stream -j N -decode-j N pipeline.
func BenchmarkSweepFusedWorkersParallelDecode(b *testing.B) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 60000)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, trace.DefaultFrameRecords); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			cfg := benchSweepConfig(cache.Nehalem, EngineFused)
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := SweepStream(cfg, func() (trace.BlockSource, error) {
					return trace.NewParallelReader(bytes.NewReader(data),
						trace.ParallelReaderOptions{Workers: workers})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
