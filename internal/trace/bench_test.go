package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// benchTrace is sized so one pass decodes enough frames to reach
// steady state while a full -bench run stays in the seconds. It uses
// the adversarial testTrace mix (frequent 2^40-range jumps → 5-6 byte
// deltas), the worst case for the varint kernel.
func benchTrace() *Trace { return testTrace(1 << 20) }

// workloadTrace mimics a trace captured from the workload suite (the
// shape cachesim and the curve server actually replay): accesses
// confined to a working set, short instruction gaps. Deltas encode in
// 1-3 bytes and heads in one — the density the records/sec acceptance
// figure is quoted at.
func workloadTrace(n int) *Trace {
	rng := rand.New(rand.NewSource(11))
	tr := &Trace{Records: make([]Record, n)}
	const spanLines = (1 << 20) / 64 // 1MB working set
	for i := range tr.Records {
		tr.Records[i] = Record{
			NInstr: uint32(rng.Intn(32)),
			Addr:   uint64(rng.Intn(spanLines)) << 6,
			Write:  rng.Intn(4) == 0,
		}
	}
	return tr
}

// reportRecords converts the benchmark's per-op time into records/sec,
// the inverse of BENCHMARK.json's trace.decode_ns_per_record.
func reportRecords(b *testing.B, records int) {
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func benchmarkDecodeV2Trace(b *testing.B, tr *Trace) {
	var buf bytes.Buffer
	if err := tr.WriteV2(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		for {
			blk, err := r.NextBlock()
			if err != nil {
				b.Fatal(err)
			}
			if len(blk) == 0 {
				break
			}
			n += len(blk)
		}
		if n != tr.Len() {
			b.Fatalf("decoded %d of %d records", n, tr.Len())
		}
		if err := r.Rewind(); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, tr.Len())
}

// BenchmarkDecodeV2 is the tentpole throughput figure: streaming
// block decode of a workload-shaped trace.
func BenchmarkDecodeV2(b *testing.B) { benchmarkDecodeV2Trace(b, workloadTrace(1<<20)) }

// BenchmarkDecodeV2Sparse decodes the adversarial wide-jump corpus:
// the varint kernel's worst case.
func BenchmarkDecodeV2Sparse(b *testing.B) { benchmarkDecodeV2Trace(b, benchTrace()) }

// BenchmarkDecodeV2InMemory measures the whole-trace Read path over
// the framed format (allocation included).
func BenchmarkDecodeV2InMemory(b *testing.B) {
	tr := benchTrace()
	var buf bytes.Buffer
	if err := tr.WriteV2(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != tr.Len() {
			b.Fatal("short decode")
		}
	}
	reportRecords(b, tr.Len())
}

// BenchmarkEncodeV2 measures the streaming encoder (capture-time
// cost).
func BenchmarkEncodeV2(b *testing.B) {
	tr := benchTrace()
	var buf bytes.Buffer
	if err := tr.WriteV2(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteV2(&buf); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, tr.Len())
}
