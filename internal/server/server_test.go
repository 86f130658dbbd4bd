package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/simulate"
)

// newTestServer builds a Server over a fresh store with a tiny stub
// compute (unless cfg overrides it) and returns it plus the hash of
// one pre-uploaded 2k-record trace.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Store == nil {
		store, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	if cfg.Compute == nil {
		cfg.Compute = func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
			return stubCurve(), nil
		}
	}
	raw, _ := testTraceBytes(t, "microrand", 1, 2_000)
	info, err := cfg.Store.Put(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, info.Hash
}

func stubCurve() *analysis.Curve {
	return &analysis.Curve{
		Name: "stub",
		Points: []analysis.Point{
			{CacheBytes: 64 << 10, CPI: 1.5, MissRatio: 0.25, FetchRatio: 0.25},
			{CacheBytes: 128 << 10, CPI: 1.25, MissRatio: 0.125, FetchRatio: 0.125},
		},
	}
}

func do(t *testing.T, s *Server, method, target string, body io.Reader) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, body)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// decodeAPIError asserts the response carries the documented JSON
// error shape and returns its code.
func decodeAPIError(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not the documented shape: %v (body %q)", err, rec.Body.String())
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Errorf("error body missing code or message: %q", rec.Body.String())
	}
	return body.Error.Code
}

// TestHandlerErrorTable drives every endpoint through its documented
// failure modes: wrong method, malformed body, truncated upload,
// unknown engine/policy/mode/params, oversize body, missing trace.
func TestHandlerErrorTable(t *testing.T) {
	s, hash := newTestServer(t, Config{MaxUploadBytes: 1 << 20})
	raw, _ := testTraceBytes(t, "microrand", 1, 2_000)

	tests := []struct {
		name       string
		method     string
		target     string
		body       io.Reader
		wantStatus int
		wantCode   string
	}{
		// Method checks, one per endpoint.
		{"traces: DELETE", http.MethodDelete, "/v1/traces", nil, 405, "method_not_allowed"},
		{"trace info: POST", http.MethodPost, "/v1/traces/" + hash, nil, 405, "method_not_allowed"},
		{"curves: POST", http.MethodPost, "/v1/curves?trace=" + hash, nil, 405, "method_not_allowed"},
		{"workloads: PUT", http.MethodPut, "/v1/workloads", nil, 405, "method_not_allowed"},
		{"healthz: POST", http.MethodPost, "/healthz", nil, 405, "method_not_allowed"},
		{"statsz: HEAD", http.MethodHead, "/statsz", nil, 405, "method_not_allowed"},

		// Upload failures.
		{"upload: malformed body", http.MethodPost, "/v1/traces", strings.NewReader("not a trace"), 400, "invalid_trace"},
		{"upload: empty body", http.MethodPost, "/v1/traces", strings.NewReader(""), 400, "invalid_trace"},
		{"upload: truncated v2 stream", http.MethodPost, "/v1/traces", bytes.NewReader(raw[:len(raw)/2]), 400, "invalid_trace"},
		{"upload: v1 stream", http.MethodPost, "/v1/traces", strings.NewReader(v1Trace), 400, "invalid_trace"},

		// Curve request validation.
		{"curves: no source", http.MethodGet, "/v1/curves", nil, 400, "missing_source"},
		{"curves: two sources", http.MethodGet, "/v1/curves?trace=" + hash + "&workload=microrand", nil, 400, "ambiguous_source"},
		{"curves: unknown trace", http.MethodGet, "/v1/curves?trace=deadbeef", nil, 404, "trace_not_found"},
		{"curves: unknown workload", http.MethodGet, "/v1/curves?workload=nonesuch", nil, 400, "unknown_workload"},
		{"curves: unknown engine", http.MethodGet, "/v1/curves?trace=" + hash + "&engine=quantum", nil, 400, "unknown_engine"},
		{"curves: unknown policy", http.MethodGet, "/v1/curves?trace=" + hash + "&policy=fifo", nil, 400, "unknown_policy"},
		{"curves: unknown mode", http.MethodGet, "/v1/curves?trace=" + hash + "&mode=diag", nil, 400, "unknown_mode"},
		{"curves: unknown format", http.MethodGet, "/v1/curves?trace=" + hash + "&format=xml", nil, 400, "unknown_format"},
		{"curves: mattson without lru", http.MethodGet, "/v1/curves?trace=" + hash + "&engine=mattson", nil, 400, "engine_policy_mismatch"},
		{"curves: mattson by sets", http.MethodGet, "/v1/curves?trace=" + hash + "&engine=mattson&policy=lru&mode=sets", nil, 400, "engine_mode_mismatch"},
		// Not a failure: the default (fused) engine sweeps by sets too.
		{"curves: fused by sets", http.MethodGet, "/v1/curves?trace=" + hash + "&mode=sets", nil, 200, ""},
		{"curves: records not a number", http.MethodGet, "/v1/curves?workload=microrand&records=lots", nil, 400, "bad_param"},
		{"curves: records out of range", http.MethodGet, "/v1/curves?workload=microrand&records=999999999", nil, 400, "bad_param"},
		{"curves: bad seed", http.MethodGet, "/v1/curves?workload=microrand&seed=-3", nil, 400, "bad_param"},
		{"curves: bad sample_rate", http.MethodGet, "/v1/curves?trace=" + hash + "&engine=analytic&sample_rate=1.5", nil, 400, "bad_param"},
		{"curves: bad nowarm", http.MethodGet, "/v1/curves?trace=" + hash + "&nowarm=maybe", nil, 400, "bad_param"},

		// Trace info.
		{"trace info: unknown hash", http.MethodGet, "/v1/traces/0000", nil, 404, "trace_not_found"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, tc.method, tc.target, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantStatus == 200 {
				return
			}
			if code := decodeAPIError(t, rec); code != tc.wantCode {
				t.Errorf("error code = %q, want %q", code, tc.wantCode)
			}
			if tc.wantStatus == 405 && rec.Header().Get("Allow") == "" {
				t.Error("405 response missing Allow header")
			}
		})
	}
}

func TestUploadOversizeBody(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxUploadBytes: 512})
	raw, _ := testTraceBytes(t, "microrand", 1, 2_000)
	if len(raw) <= 512 {
		t.Fatalf("test trace only %d bytes; shrink the limit", len(raw))
	}
	rec := do(t, s, http.MethodPost, "/v1/traces", bytes.NewReader(raw))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %q)", rec.Code, rec.Body.String())
	}
	if code := decodeAPIError(t, rec); code != "body_too_large" {
		t.Errorf("error code = %q, want body_too_large", code)
	}
}

func TestUploadAndListTraces(t *testing.T) {
	s, preHash := newTestServer(t, Config{})
	raw, _ := testTraceBytes(t, "microseq", 7, 3_000)

	rec := do(t, s, http.MethodPost, "/v1/traces", bytes.NewReader(raw))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload status = %d, want 201 (body %q)", rec.Code, rec.Body.String())
	}
	var info TraceInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Records != 3_000 {
		t.Errorf("Records = %d, want 3000", info.Records)
	}

	rec = do(t, s, http.MethodGet, "/v1/traces/"+info.Hash, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("info status = %d", rec.Code)
	}

	rec = do(t, s, http.MethodGet, "/v1/traces", nil)
	var list struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	hashes := map[string]bool{}
	for _, ti := range list.Traces {
		hashes[ti.Hash] = true
	}
	if !hashes[preHash] || !hashes[info.Hash] {
		t.Errorf("list %v missing uploads %s, %s", hashes, preHash, info.Hash)
	}
}

func TestCurveEndpointServesAndCaches(t *testing.T) {
	var calls int
	s, hash := newTestServer(t, Config{
		Compute: func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
			calls++
			return stubCurve(), nil
		},
	})

	rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %q)", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first fetch X-Cache = %q, want miss", got)
	}
	first, err := analysis.ReadCurveJSON(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("response is not a curve: %v", err)
	}
	if first.Name != "stub" || len(first.Points) != 2 {
		t.Errorf("decoded curve %q with %d points", first.Name, len(first.Points))
	}

	rec = do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil)
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second fetch X-Cache = %q, want hit", got)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1 (second fetch cached)", calls)
	}

	// A different engine is a different key: recompute.
	rec = do(t, s, http.MethodGet, "/v1/curves?trace="+hash+"&engine=analytic", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("analytic status = %d", rec.Code)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times after engine switch, want 2", calls)
	}
}

// TestCurveKeyIgnoresUnusedKnobs: a knob the requested engine ignores
// must not fork the cache key — one row per ignored field, each a
// cache hit on the curve the plain request computed — while a knob the
// engine reads still does.
func TestCurveKeyIgnoresUnusedKnobs(t *testing.T) {
	for _, tc := range []struct {
		base, knob string
		computes   int
	}{
		{"engine=fused", "sample_rate=0.5", 1},
		{"engine=fused", "sample_size=100", 1},
		{"engine=persize", "sample_rate=0.5", 1},
		{"engine=persize", "sample_size=100", 1},
		{"engine=mattson&policy=lru", "sample_rate=0.5", 1},
		{"engine=mattson&policy=lru", "sample_size=100", 1},
		{"engine=mattson&policy=lru", "nowarm=true", 1},
		{"engine=analytic", "nowarm=true", 1},
		{"engine=analytic", "policy=lru", 1},
		{"engine=analytic", "policy=plru", 1},
		// Knobs the engine reads stay in the key.
		{"engine=fused", "nowarm=true", 2},
		{"engine=fused", "policy=lru", 2},
		{"engine=analytic", "sample_rate=0.5", 2},
		{"engine=analytic", "sample_size=100", 2},
		{"engine=analytic", "mode=sets", 2},
	} {
		t.Run(tc.base+"&"+tc.knob, func(t *testing.T) {
			var calls int
			s, hash := newTestServer(t, Config{
				Compute: func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
					calls++
					return stubCurve(), nil
				},
			})
			for _, q := range []string{tc.base, tc.base + "&" + tc.knob} {
				if rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash+"&"+q, nil); rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d (body %q)", q, rec.Code, rec.Body.String())
				}
			}
			if calls != tc.computes {
				t.Errorf("compute ran %d times, want %d", calls, tc.computes)
			}
		})
	}
}

func TestCurveCSVFormat(t *testing.T) {
	s, hash := newTestServer(t, Config{})
	rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash+"&format=csv", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %q)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("Content-Type = %q, want text/csv", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	// Header row plus one row per stub point.
	if len(lines) != 3 {
		t.Errorf("CSV has %d lines, want 3:\n%s", len(lines), rec.Body.String())
	}
}

func TestCurveComputeErrorTaxonomy(t *testing.T) {
	t.Run("timeout maps to 504", func(t *testing.T) {
		s, hash := newTestServer(t, Config{
			JobTimeout: 20 * time.Millisecond,
			Compute: func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			},
		})
		rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 (body %q)", rec.Code, rec.Body.String())
		}
		if code := decodeAPIError(t, rec); code != "job_timeout" {
			t.Errorf("code = %q, want job_timeout", code)
		}
	})
	t.Run("closed queue maps to 503", func(t *testing.T) {
		s, hash := newTestServer(t, Config{})
		s.Close()
		rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %q)", rec.Code, rec.Body.String())
		}
		if code := decodeAPIError(t, rec); code != "shutting_down" {
			t.Errorf("code = %q, want shutting_down", code)
		}
	})
}

func TestHealthzAndStatsz(t *testing.T) {
	s, hash := newTestServer(t, Config{})
	rec := do(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}

	// One miss then one hit, so statsz has signal.
	do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil)
	do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil)

	rec = do(t, s, http.MethodGet, "/statsz", nil)
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsServed != 1 {
		t.Errorf("jobs_served = %d, want 1", st.JobsServed)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.CacheHitRate != 0.5 {
		t.Errorf("cache_hit_rate = %g, want 0.5", st.CacheHitRate)
	}
	if st.Traces != 1 {
		t.Errorf("traces = %d, want 1", st.Traces)
	}
	if st.SweepWorkers != 1 {
		t.Errorf("sweep_workers = %d, want the default 1", st.SweepWorkers)
	}
}

// TestStatszSweepWorkers pins the configured sweep width through to
// the stats payload.
func TestStatszSweepWorkers(t *testing.T) {
	s, _ := newTestServer(t, Config{SweepWorkers: 3})
	rec := do(t, s, http.MethodGet, "/statsz", nil)
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SweepWorkers != 3 {
		t.Errorf("sweep_workers = %d, want 3", st.SweepWorkers)
	}
}

// TestStatszSweepReplicas: a fused-curve miss moves both footprint-probe
// counters on /statsz — the 2000-record trace overflows only the few
// smallest of the 16 L3 sizes, so those and the probe replay and the
// rest take the probe's point — and a hit on the same key moves neither.
// The counters are process-wide, so the test reads deltas.
func TestStatszSweepReplicas(t *testing.T) {
	s, hash := newTestServer(t, Config{})
	s.compute = s.computeDirect // newTestServer stubs the engines out
	sweep := func() simulate.ReplicaStats {
		t.Helper()
		var st Stats
		if err := json.Unmarshal(do(t, s, http.MethodGet, "/statsz", nil).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Sweep
	}
	get := func() {
		t.Helper()
		if rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil); rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/curves: status %d (body %q)", rec.Code, rec.Body.String())
		}
	}
	idle := sweep()
	get()
	miss := sweep()
	if dr, dc := miss.ReplicasReplayed-idle.ReplicasReplayed, miss.ReplicasCloned-idle.ReplicasCloned; dr < 1 || dc < 1 || dr+dc != 16 {
		t.Errorf("a miss moved the sweep counters by %d replayed / %d cloned, want some of each and 16 in all", dr, dc)
	}
	get()
	if hit := sweep(); hit != miss {
		t.Errorf("a cache hit moved the sweep counters: %+v -> %+v", miss, hit)
	}
}
