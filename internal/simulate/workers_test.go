package simulate

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

func TestCalibrateClampsAboveOne(t *testing.T) {
	curve := &analysis.Curve{Name: "c", Points: []analysis.Point{
		{CacheBytes: 1 << 10, FetchRatio: 0.95, Trusted: true},
		{CacheBytes: 2 << 10, FetchRatio: 0.50, Trusted: true},
		{CacheBytes: 4 << 10, FetchRatio: 0.60, Trusted: true},
	}}
	Calibrate(curve, 0.90 /* offset +0.30 pushes the first point past 1 */)
	if got := curve.Points[0].FetchRatio; got != 1 {
		t.Errorf("fetch ratio above 1 not clamped: %g", got)
	}
	if got := curve.Points[1].FetchRatio; got != 0.50+0.30 {
		t.Errorf("in-range point shifted wrongly: %g", got)
	}
	if got := curve.Points[2].FetchRatio; got != 0.90 {
		t.Errorf("baseline point = %g, want 0.90", got)
	}
}

// TestSweepWorkersDeterminism is the tier-1 reproducibility guarantee:
// the parallel sweep must be bit-identical to the serial one at any
// worker count.
func TestSweepWorkersDeterminism(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 20000)
	base := Config{Machine: smallMachine(), Sizes: []int64{16 << 10, 32 << 10, 48 << 10, 64 << 10}}

	serialCfg := base
	serialCfg.Workers = 1
	serial, err := Sweep(serialCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := Sweep(cfg, tr)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d sweep differs from serial:\n%+v\nvs\n%+v", workers, serial.Points, got.Points)
		}
	}
}

// countedSource counts the Close calls of the sources a sweep opens
// and, once armed, fires trip when any of them has served its
// tripAfter-th block.
type countedSource struct {
	trace.BlockSource
	closed, blocks *atomic.Int64
	tripAfter      int64
	trip           func()
}

func (s countedSource) NextBlock() ([]trace.Record, error) {
	if s.blocks.Add(1) == s.tripAfter {
		s.trip()
	}
	return s.BlockSource.NextBlock()
}

func (s countedSource) Close() error {
	s.closed.Add(1)
	return nil
}

// TestFusedSweepErrorSameAtAnyWidth pins the error contract of the one
// fused path: a torn trace and a mid-replay cancellation surface their
// sentinel with the same text at Workers 1, 2 and 3 — no "runner: task
// N" group index — and every source a group opened is closed again,
// also when it is a sibling group that failed. The trace fits every
// size of the sweep, so this is also the footprint probe's error path:
// the probe replays the whole trace before anything is cloned, and a
// trace it cannot finish proves nothing.
func TestFusedSweepErrorSameAtAnyWidth(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 3000)
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 256); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	torn := whole[:len(whole)*3/5]
	for _, tc := range []struct {
		name      string
		data      []byte
		tripAfter int64 // cancel the context at this block; 0 = never
		want      error
	}{
		{"torn trace", torn, 0, io.ErrUnexpectedEOF},
		{"cancelled mid-replay", whole, 5, context.Canceled},
	} {
		var texts []string
		for _, workers := range []int{1, 2, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var opened, closed, blocks atomic.Int64
			open := func() (trace.BlockSource, error) {
				r, err := trace.NewReader(bytes.NewReader(tc.data), trace.ReaderOptions{})
				if err != nil {
					return nil, err
				}
				opened.Add(1)
				return countedSource{BlockSource: r, closed: &closed, blocks: &blocks, tripAfter: tc.tripAfter, trip: cancel}, nil
			}
			// The default Nehalem sweep: the probe and 5 more replica groups.
			_, err := SweepStreamContext(ctx, Config{Workers: workers}, open)
			cancel()
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s, Workers %d: err = %v, want %v", tc.name, workers, err, tc.want)
			}
			if strings.Contains(err.Error(), "runner:") {
				t.Errorf("%s, Workers %d: error names a runner task: %q", tc.name, workers, err)
			}
			if o, c := opened.Load(), closed.Load(); o == 0 || o != c {
				t.Errorf("%s, Workers %d: %d sources opened, %d closed", tc.name, workers, o, c)
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] || texts[0] != texts[2] {
			t.Errorf("%s: error reads %q at Workers 1, %q at 2, %q at 3", tc.name, texts[0], texts[1], texts[2])
		}
	}
}

// TestSweepSerialGolden replays the pre-pool serial loop by hand and
// checks that Sweep with Workers=1 reproduces it exactly. This pins the
// refactor: the worker pool changed scheduling, not simulation.
func TestSweepSerialGolden(t *testing.T) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 20000)
	cfg := Config{Machine: smallMachine(), Sizes: []int64{16 << 10, 32 << 10, 64 << 10}, Workers: 1}

	got, err := Sweep(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	// The historical loop body, verbatim: shrink, fresh machine, warm
	// replays, one measured replay through the counters.
	def := cfg.withDefaults()
	passInstrs := tr.Instructions()
	want := &analysis.Curve{Name: "reference"}
	for _, size := range def.Sizes {
		mcfg := shrink(def.Machine, def.Mode, size)
		m, err := machine.New(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(0, workload.NewFromBlocks("trace", trace.NewReplayer(tr, false), def.MLP, 0)); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < def.WarmPasses; w++ {
			if err := m.RunInstructions(0, passInstrs); err != nil {
				t.Fatal(err)
			}
		}
		pmu := counters.NewPMU(m)
		pmu.MarkAll()
		if err := m.RunInstructions(0, passInstrs); err != nil {
			t.Fatal(err)
		}
		s := pmu.ReadInterval(0)
		want.Points = append(want.Points, analysis.Point{
			CacheBytes:   size,
			CPI:          s.CPI(),
			BandwidthGBs: s.BandwidthGBs(mcfg.CPU.FreqHz),
			FetchRatio:   s.FetchRatio(),
			MissRatio:    s.MissRatio(),
			Trusted:      true,
			Samples:      1,
		})
	}
	want.Sort()

	if !reflect.DeepEqual(want, got) {
		t.Errorf("Sweep(Workers:1) diverges from the historical serial loop:\n%+v\nvs\n%+v", want.Points, got.Points)
	}
}

func BenchmarkSweepSerial(b *testing.B) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 60000)
	cfg := Config{Machine: smallMachine(), Workers: 1} // 16 default sizes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel measures the pooled sweep and reports the
// wall-clock speedup over a serial run of the same work as a custom
// metric. On a multi-core host speedup-vs-serial approaches the worker
// count; on a single-CPU host it sits near 1.
func BenchmarkSweepParallel(b *testing.B) {
	tr := CaptureTrace(randFactory(64<<10), 1, 0, 60000)
	serialCfg := Config{Machine: smallMachine(), Workers: 1}
	parCfg := Config{Machine: smallMachine(), Workers: 0}

	t0 := time.Now()
	if _, err := Sweep(serialCfg, tr); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(t0)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(parCfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		par := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(serial.Seconds()/par.Seconds(), "speedup-vs-serial")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	}
}
