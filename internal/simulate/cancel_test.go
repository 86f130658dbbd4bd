package simulate

import (
	"context"
	"errors"
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// cancelTrace captures a trace long enough that every engine performs
// many cancellation polls per pass.
func cancelTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	spec := workload.MustByName("microrand")
	return CaptureTrace(spec.New, 1, 0, n)
}

// countingCancelSource wraps a replayer, cancelling the context after
// the source has been rewound once — i.e. mid-sweep, after warm-up
// passes begin — so the test exercises a cancellation that arrives
// while a replay is in flight rather than before the call.
type countingCancelSource struct {
	*trace.Replayer
	cancel  context.CancelFunc
	rewinds *int
}

func (s countingCancelSource) Rewind() error {
	*s.rewinds++
	if *s.rewinds == 2 {
		s.cancel()
	}
	return s.Replayer.Rewind()
}

// TestSweepContextCancelledUpFront: a sweep submitted with an
// already-cancelled context must fail with context.Canceled on every
// engine instead of replaying the whole trace — the regression for
// slow jobs running to completion after the client is gone.
func TestSweepContextCancelledUpFront(t *testing.T) {
	tr := cancelTrace(t, 30_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{EngineFused, EnginePerSize, EngineAnalytic} {
		cfg := Config{Engine: eng, Workers: 1}
		_, err := SweepStreamContext(ctx, cfg, replayer(tr))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("engine %v: SweepStreamContext with cancelled ctx = %v, want context.Canceled", eng, err)
		}
	}
}

// TestSweepContextCancelMidReplay cancels between the warm pass and
// the measured pass: the fused engine must abandon the measured replay
// and surface the cancellation.
func TestSweepContextCancelMidReplay(t *testing.T) {
	tr := cancelTrace(t, 30_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rewinds := 0
	open := func() (trace.BlockSource, error) {
		return countingCancelSource{Replayer: trace.NewReplayer(tr, false), cancel: cancel, rewinds: &rewinds}, nil
	}
	_, err := SweepStreamContext(ctx, Config{Engine: EngineFused, Workers: 1}, open)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepStreamContext cancelled mid-replay = %v, want context.Canceled", err)
	}
	if rewinds < 2 {
		t.Fatalf("cancellation fired before the measured pass started (rewinds = %d)", rewinds)
	}
}

// TestMattsonAnalyticContextCancel: the single-pass profilers poll the
// context at block granularity through the ctxSource wrapper.
func TestMattsonAnalyticContextCancel(t *testing.T) {
	tr := cancelTrace(t, 30_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	open := replayer(tr)
	cfg := Config{Machine: machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), cache.LRU)}
	for _, eng := range []Engine{EngineMattson, EngineAnalytic} {
		cfg.Engine = eng
		if _, err := SweepStreamContext(ctx, cfg, open); !errors.Is(err, context.Canceled) {
			t.Errorf("engine %v: SweepStreamContext = %v, want context.Canceled", eng, err)
		}
	}
	if _, err := AnalyticEstimate(ctx, cfg, open); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyticEstimate = %v, want context.Canceled", err)
	}
}

// TestRunInstructionsCtxLiveContextIdentical: running under a live
// context must leave the machine bit-identical to the ctx-free path.
func TestRunInstructionsCtxLiveContextIdentical(t *testing.T) {
	tr := cancelTrace(t, 20_000)
	build := func() *machine.Machine {
		m, err := machine.New(machine.NehalemConfigNoPrefetch())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AttachBlocks(0, "trace", trace.NewReplayer(tr, false), 2); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	if err := a.RunInstructions(0, tr.Instructions()); err != nil {
		t.Fatal(err)
	}
	if err := b.RunInstructionsCtx(context.Background(), 0, tr.Instructions()); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.ReadCounters(0), b.ReadCounters(0)
	if sa != sb {
		t.Fatalf("counters diverge under a live context:\n ctx-free %+v\n ctx      %+v", sa, sb)
	}
}
