package simulate

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/machine"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// probeSpans are the footprints the footprint-probe tests replay on
// smallMachine (64 KB of 16 ways over 64 sets, swept in 16 sizes of
// 4 KB), as uniform random accesses over a contiguous span — so a span
// of L lines asks ceil(L/sets) ways of every set. replayed is how many
// of the 16 replicas a serial sweep must replay, in either mode: 40 KB
// is 10 lines to each of the 64 sets by ways, and by sets the 40 KB size
// (40 sets of 16 ways) is the first to seat 640 consecutive lines.
var probeSpans = []struct {
	name     string
	span     int64
	replayed int
}{
	{"fits the smallest size", 4 << 10, 1},
	{"fits from the 40 KB size up", 40 << 10, 1 + 9},
	{"fits only the largest size", 64 << 10, 16},
	{"overflows", 96 << 10, 16},
}

// samePoints reports the first point of got that differs from want.
// analysis.Point holds only comparable fields and no NaN here, so ==
// is bit-identity.
func samePoints(want, got []analysis.Point) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestFootprintProbeReplaysOnlyWhatCanOverflow pins the probe's
// bookkeeping. At Workers 1 the probe finishes before any other group
// starts, so the replayed count is exact: the probe alone when the
// trace fits the smallest size, every size when the largest evicts (or
// is the only fit), the probe plus exactly the non-fitting sizes in
// between. Wider sweeps may start groups before the probe is done, so
// they replay at most everything and at least the serial count — and
// at any width every point, cloned or replayed, is the per-size
// oracle's, and the process-wide counters move by exactly what the
// sweep reports.
func TestFootprintProbeReplaysOnlyWhatCanOverflow(t *testing.T) {
	for _, mode := range []SweepMode{ByWays, BySets} {
		for _, tc := range probeSpans {
			tr := CaptureTrace(randFactory(tc.span), 1, 0, 12000)
			open := func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
			cfg := Config{Machine: smallMachine(), Mode: mode, Workers: 1}
			oracle := cfg
			oracle.Engine = EnginePerSize
			want, err := Sweep(oracle, tr)
			if err != nil {
				t.Fatal(err)
			}
			cfg = cfg.withDefaults()
			l3 := sweepL3(t, cfg)
			var serialFree []bool
			for _, workers := range []int{1, 2, 3, 8} {
				cfg.Workers = workers
				before := SweepReplicaStats()
				pts, free, replayed, err := sweepFusedGrouped(context.Background(), cfg, open, l3, fusedGroupLines)
				if err != nil {
					t.Fatalf("mode %d, %s, j=%d: %v", mode, tc.name, workers, err)
				}
				// Which replicas evict is the trace's doing, so the mask
				// is the same whether a size was cloned or replayed.
				if serialFree == nil {
					serialFree = free
				} else if !slices.Equal(free, serialFree) {
					t.Errorf("mode %d, %s, j=%d: policy-free mask %v, serial sweep's %v", mode, tc.name, workers, free, serialFree)
				}
				if err := samePoints(want.Points, pts); err != nil {
					t.Errorf("mode %d, %s, j=%d: %v", mode, tc.name, workers, err)
				}
				if workers == 1 && replayed != tc.replayed {
					t.Errorf("mode %d, %s: serial sweep replayed %d of %d replicas, want %d", mode, tc.name, replayed, len(l3), tc.replayed)
				}
				if replayed < tc.replayed || replayed > len(l3) {
					t.Errorf("mode %d, %s, j=%d: replayed %d replicas, want %d..%d", mode, tc.name, workers, replayed, tc.replayed, len(l3))
				}
				after := SweepReplicaStats()
				if dr, dc := after.ReplicasReplayed-before.ReplicasReplayed, after.ReplicasCloned-before.ReplicasCloned; dr != int64(replayed) || dc != int64(len(l3)-replayed) {
					t.Errorf("mode %d, %s, j=%d: counters moved by %d replayed / %d cloned, the sweep replayed %d of %d", mode, tc.name, workers, dr, dc, replayed, len(l3))
				}
			}
		}
	}
}

// TestFootprintProbeProvenGroupOpensNoSource: a group whose replicas
// are all proven never opens the trace. With one replica per group the
// sources opened are exactly the replicas replayed, and each is closed.
func TestFootprintProbeProvenGroupOpensNoSource(t *testing.T) {
	for _, tc := range probeSpans {
		tr := CaptureTrace(randFactory(tc.span), 1, 0, 12000)
		var opened, closed, blocks atomic.Int64
		open := func() (trace.BlockSource, error) {
			opened.Add(1)
			return countedSource{BlockSource: trace.NewReplayer(tr, false), closed: &closed, blocks: &blocks}, nil
		}
		cfg := Config{Machine: smallMachine(), Workers: 1}.withDefaults()
		_, _, replayed, err := sweepFusedGrouped(context.Background(), cfg, open, sweepL3(t, cfg), 1)
		if err != nil {
			t.Fatal(err)
		}
		if replayed != tc.replayed {
			t.Errorf("%s: replayed %d replicas, want %d", tc.name, replayed, tc.replayed)
		}
		if o, c := opened.Load(), closed.Load(); o != int64(replayed) || c != o {
			t.Errorf("%s: %d sources opened and %d closed for %d single-replica groups replayed", tc.name, o, c, replayed)
		}
	}
}

// TestFootprintProbeHarnessTrace pins the count behind the benchmark
// claim: on the harness's replay_exact input — 400k omnetpp records,
// seed 1, the 16-size sweep of the Nehalem machine without its
// prefetcher, by ways — the 12- to 16-way sizes never evict, so 11 of
// 16 replicas replay.
func TestFootprintProbeHarnessTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 400k records through 11 Nehalem-sized replicas")
	}
	tr := CaptureTrace(workload.MustByName("omnetpp").New, 1, 0, 400_000)
	open := func() (trace.BlockSource, error) { return trace.NewReplayer(tr, false), nil }
	cfg := Config{Machine: machine.NehalemConfigNoPrefetch(), Workers: 1}.withDefaults()
	pts, _, replayed, err := sweepFusedGrouped(context.Background(), cfg, open, sweepL3(t, cfg), fusedGroupLines)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 11 {
		t.Errorf("replayed %d of 16 replicas, want 11", replayed)
	}
	// A cloned point is the probe's but for its size.
	probe := pts[15]
	for k := 11; k < 15; k++ {
		want := probe
		want.CacheBytes = cfg.Sizes[k]
		if pts[k] != want {
			t.Errorf("%d-way point %+v is not the probe's %+v", k+1, pts[k], probe)
		}
	}
}
