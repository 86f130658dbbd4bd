package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"cachepirate/internal/simulate"
)

// FuzzParseJobSpec fuzzes curve-request query strings, seeded with the
// curve requests of TestHandlerErrorTable. The handler (over a stub
// compute) must never answer 5xx, and parseJobSpec must agree with
// simulate.Config.Validate, the rule it defers to: an accepted spec's
// sweep config validates, and a knob-clash rejection carries the code
// of the fields Validate blames.
func FuzzParseJobSpec(f *testing.F) {
	s, hash := newTestServer(f, Config{})
	raw, _ := testTraceBytes(f, "microrand", 1, 2_000)
	for _, tc := range handlerCases(hash, raw) {
		if tc.method == http.MethodGet && strings.HasPrefix(tc.target, "/v1/curves?") {
			f.Add(strings.TrimPrefix(tc.target, "/v1/curves?"))
		}
	}
	mismatch := map[simulate.Field]string{
		simulate.FieldEngine | simulate.FieldPolicy: "engine_policy_mismatch",
		simulate.FieldEngine | simulate.FieldMode:   "engine_mode_mismatch",
		simulate.FieldPolicy | simulate.FieldMode:   "policy_mode_mismatch",
	}
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/curves", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		if s.ServeHTTP(rec, req); rec.Code >= 500 {
			t.Fatalf("%q: status %d (body %q)", query, rec.Code, rec.Body.String())
		}
		q, _ := url.ParseQuery(query) // what r.URL.Query() hands the handler
		j, aerr := parseJobSpec(q, s.store)
		err := j.simConfig(1).Validate()
		if aerr == nil {
			if err != nil {
				t.Fatalf("%q: accepted, but Validate says %v", query, err)
			}
			return
		}
		if aerr.status >= 500 {
			t.Fatalf("%q: %v", query, aerr)
		}
		if strings.HasPrefix(aerr.code, "engine_") || aerr.code == "policy_mode_mismatch" {
			var ce *simulate.ConfigError
			if !errors.As(err, &ce) || mismatch[ce.Fields] != aerr.code {
				t.Fatalf("%q: rejected as %s, but Validate says %v", query, aerr.code, err)
			}
		}
	})
}

// BenchmarkParseJobSpec times the parse of a default curve request, the
// work every GET does before its result-cache lookup.
func BenchmarkParseJobSpec(b *testing.B) {
	s, hash := newTestServer(b, Config{})
	q := url.Values{"trace": {hash}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, aerr := parseJobSpec(q, s.store); aerr != nil {
			b.Fatal(aerr)
		}
	}
}
