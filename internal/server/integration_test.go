package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/conformance"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
)

// TestEndToEndServedCurvesBitIdentical is the acceptance-criteria
// test: start the real server in-process (production compute, real
// engines), upload a generated trace over HTTP, fetch a curve from
// every engine, and require each bit-identical to a direct
// simulate.SweepStreamContext call with the same Engine on the same
// stored trace.
func TestEndToEndServedCurvesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine replays; skipped in -short")
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	raw, _ := testTraceBytes(t, "microrand", 1, 40_000)
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	uploadBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, uploadBody)
	}
	var info TraceInfo
	if err := json.Unmarshal(uploadBody, &info); err != nil {
		t.Fatal(err)
	}

	fetch := func(query string) *analysis.Curve {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/curves?" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/curves?%s: status %d: %s", query, resp.StatusCode, body)
		}
		curve, err := analysis.ReadCurveJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("GET /v1/curves?%s: bad curve: %v", query, err)
		}
		return curve
	}

	// Direct engine runs are one simulate.SweepStreamContext call over
	// the same stored object, minus HTTP, queue, cache and the server's
	// own dispatch.
	direct := func(spec JobSpec) *analysis.Curve {
		t.Helper()
		open := func() (trace.BlockSource, error) { return store.Open(spec.TraceHash) }
		curve, err := simulate.SweepStreamContext(context.Background(), spec.simConfig(1), open)
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}

	for _, tc := range []struct {
		name  string
		query string
		spec  JobSpec
	}{
		{"fused", fmt.Sprintf("trace=%s&engine=fused", info.Hash),
			JobSpec{TraceHash: info.Hash, Engine: simulate.EngineFused, Policy: cache.Nehalem}},
		{"persize", fmt.Sprintf("trace=%s&engine=persize", info.Hash),
			JobSpec{TraceHash: info.Hash, Engine: simulate.EnginePerSize, Policy: cache.Nehalem}},
		{"mattson", fmt.Sprintf("trace=%s&engine=mattson&policy=lru", info.Hash),
			JobSpec{TraceHash: info.Hash, Engine: simulate.EngineMattson, Policy: cache.LRU}},
		{"analytic", fmt.Sprintf("trace=%s&engine=analytic", info.Hash),
			JobSpec{TraceHash: info.Hash, Engine: simulate.EngineAnalytic, Policy: cache.Nehalem}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			served := fetch(tc.query)
			want := direct(tc.spec)
			if err := conformance.CurvesIdentical(want, served); err != nil {
				t.Errorf("served %s curve differs from direct engine call: %v", tc.name, err)
			}
			// And a second fetch, now cache-served, must round-trip to
			// the same bits.
			again := fetch(tc.query)
			if err := conformance.CurvesIdentical(want, again); err != nil {
				t.Errorf("cached %s curve differs: %v", tc.name, err)
			}
		})
	}

	// The served fused curves must also match a direct in-memory Sweep
	// over the decoded upload — the engines' source-independence
	// contract, exercised through the full HTTP + store path, in both
	// sweep modes (mode=sets with no engine named is the default, fused).
	t.Run("fused matches in-memory sweep", func(t *testing.T) {
		tr, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			query string
			mode  simulate.SweepMode
		}{
			{"engine=fused", simulate.ByWays},
			{"mode=sets", simulate.BySets},
		} {
			spec := JobSpec{TraceHash: info.Hash, Engine: simulate.EngineFused, Policy: cache.Nehalem, Mode: tc.mode}
			want, err := simulate.Sweep(spec.simConfig(1), tr)
			if err != nil {
				t.Fatal(err)
			}
			served := fetch(fmt.Sprintf("trace=%s&%s", info.Hash, tc.query))
			if err := conformance.CurvesIdentical(want, served); err != nil {
				t.Errorf("served %s curve differs from simulate.Sweep on the raw upload: %v", tc.query, err)
			}
		}
	})
}

// TestEndToEndWorkloadCapture: a workload-spec request captures,
// stores and profiles the trace server-side; the result must be
// bit-identical to the direct analytic call on the same capture.
func TestEndToEndWorkloadCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine replays; skipped in -short")
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := do(t, srv, http.MethodGet, "/v1/curves?workload=microseq&records=30000&engine=analytic", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	served, err := analysis.ReadCurveJSON(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The capture must have landed in the store.
	if store.Len() != 1 {
		t.Fatalf("store holds %d traces after workload capture, want 1", store.Len())
	}
	hash := store.List()[0].Hash

	spec := JobSpec{TraceHash: hash, Engine: simulate.EngineAnalytic, Policy: cache.Nehalem}
	open := func() (trace.BlockSource, error) { return store.Open(hash) }
	want, err := simulate.SweepStreamContext(context.Background(), spec.simConfig(1), open)
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.CurvesIdentical(want, served); err != nil {
		t.Errorf("served workload curve differs from direct engine call: %v", err)
	}
}

// TestSweepWorkersCurveIdentical: a server configured with a wide
// per-job sweep (Config.SweepWorkers) must produce exactly the curve a
// serial server produces — running replica groups side by side is a
// latency knob, never a results knob. This is why SweepWorkers stays
// out of JobSpec.Key: cached curves remain valid across width changes.
func TestSweepWorkersCurveIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine replays; skipped in -short")
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := testTraceBytes(t, "microrand", 7, 30_000)
	info, err := store.Put(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{TraceHash: info.Hash, Engine: simulate.EngineFused, Policy: cache.Nehalem}

	curves := make(map[int]*analysis.Curve)
	for _, workers := range []int{1, 3} {
		srv, err := New(Config{Store: store, SweepWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		curves[workers], err = srv.computeDirect(context.Background(), spec)
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := conformance.CurvesIdentical(curves[1], curves[3]); err != nil {
		t.Errorf("SweepWorkers=3 curve differs from serial server: %v", err)
	}
}
