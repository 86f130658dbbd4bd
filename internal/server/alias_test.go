package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/report"
)

// statsz decodes the server's /statsz payload.
func statsz(t *testing.T, s *Server) Stats {
	t.Helper()
	var st Stats
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/statsz", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getCurve requests the curve of a raw query and requires a 200 whose
// Content-Length is its body's length.
func getCurve(t *testing.T, s *Server, raw string) *httptest.ResponseRecorder {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/v1/curves?"+raw, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d (body %q)", raw, rec.Code, rec.Body.String())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", raw, cl, rec.Body.Len())
	}
	return rec
}

// TestAliasHitMatchesParsedHit: for every raw query, a hit answered
// through the alias table carries the same bytes, X-Cache, Content-Type
// and Content-Length as a hit that parsed the query, and only the first
// moves cache.alias_hits. The queries cover the default and explicit
// JSON format, reordered parameters, every engine and a policy variant,
// on the production engines.
func TestAliasHitMatchesParsedHit(t *testing.T) {
	s, hash := newTestServer(t, Config{})
	s.compute = s.computeDirect // newTestServer stubs the engines out
	for _, raw := range []string{
		"trace=" + hash,
		"trace=" + hash + "&format=json",
		"format=json&trace=" + hash,
		"trace=" + hash + "&engine=fused&policy=lru",
		"policy=lru&engine=fused&trace=" + hash,
		"trace=" + hash + "&policy=random",
		"trace=" + hash + "&engine=persize",
		"trace=" + hash + "&engine=mattson&policy=lru",
		"trace=" + hash + "&engine=analytic&sample_rate=0.5",
		"workload=microseq&records=3000&seed=2",
	} {
		t.Run(raw, func(t *testing.T) {
			getCurve(t, s, raw) // computed, or a hit of an earlier query's key
			s.aliases = newAliasTable()
			before := statsz(t, s)
			parsed := getCurve(t, s, raw)
			mid := statsz(t, s)
			aliased := getCurve(t, s, raw)
			after := statsz(t, s)
			if d := mid.Cache.AliasHits - before.Cache.AliasHits; d != 0 {
				t.Errorf("a request that parsed moved alias_hits by %d", d)
			}
			if d := after.Cache.AliasHits - mid.Cache.AliasHits; d != 1 {
				t.Errorf("a repeated request moved alias_hits by %d, want 1", d)
			}
			if dh, dm := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses; dh != 2 || dm != 0 {
				t.Errorf("two hits counted %d hits and %d misses", dh, dm)
			}
			for _, h := range []string{"X-Cache", "Content-Type", "Content-Length"} {
				if p, a := parsed.Header().Get(h), aliased.Header().Get(h); p != a {
					t.Errorf("%s: parsed hit %q, alias hit %q", h, p, a)
				}
			}
			if x := aliased.Header().Get("X-Cache"); x != "hit" {
				t.Errorf("X-Cache %q, want hit", x)
			}
			if parsed.Body.String() != aliased.Body.String() {
				t.Errorf("alias hit body differs from the parsed hit's")
			}
		})
	}
}

// TestAliasCSVRenderedEveryRequest: a CSV request is never aliased, so
// each one renders the cached curve again, correctly and with its
// length.
func TestAliasCSVRenderedEveryRequest(t *testing.T) {
	s, hash := newTestServer(t, Config{})
	raw := "trace=" + hash + "&format=csv"
	want := report.CurveTable(JobSpec{TraceHash: hash}.title(), stubCurve()).CSV()
	for i, x := range []string{"miss", "hit", "hit"} {
		rec := getCurve(t, s, raw)
		if got := rec.Header().Get("X-Cache"); got != x {
			t.Errorf("request %d: X-Cache %q, want %q", i, got, x)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "text/csv; charset=utf-8" {
			t.Errorf("request %d: Content-Type %q", i, ct)
		}
		if rec.Body.String() != want {
			t.Errorf("request %d: CSV body\n%s\nwant\n%s", i, rec.Body.String(), want)
		}
	}
	if _, ok := s.aliases.lookup(raw); ok {
		t.Error("a CSV query was aliased")
	}
	if st := statsz(t, s); st.Cache.AliasHits != 0 || st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Errorf("cache stats %+v, want 2 hits, 1 miss, no alias hit", st.Cache)
	}
}

// evict pushes key out of the result cache by filling its shard with a
// value that takes the shard's whole budget.
func evict(t *testing.T, c *lruCache[[]byte], key string) {
	t.Helper()
	sh := c.shard(key)
	filler := ""
	for i := 0; filler == "" || c.shard(filler) != sh; i++ {
		filler = fmt.Sprintf("filler-%d", i)
	}
	before := c.Stats().Evictions
	c.Put(filler, make([]byte, sh.budget-int64(len(filler))-entryOverhead))
	if c.Stats().Evictions == before {
		t.Fatal("the filler evicted nothing")
	}
}

// TestAliasEvictedCurveOneMiss: an alias whose curve was evicted
// recomputes it, and the request counts one miss, not two.
func TestAliasEvictedCurveOneMiss(t *testing.T) {
	var calls atomic.Int64
	s, hash := newTestServer(t, Config{
		CacheBytes: 1 << 20,
		Compute: func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
			calls.Add(1)
			return stubCurve(), nil
		},
	})
	raw := "trace=" + hash + "&engine=fused"
	first := getCurve(t, s, raw)
	key, ok := s.aliases.lookup(raw)
	if !ok {
		t.Fatal("a valid JSON query was not aliased")
	}
	evict(t, s.cache, key)

	before := statsz(t, s)
	rec := getCurve(t, s, raw)
	after := statsz(t, s)
	if x := rec.Header().Get("X-Cache"); x != "miss" {
		t.Errorf("X-Cache %q after eviction, want miss", x)
	}
	if calls.Load() != 2 {
		t.Errorf("compute ran %d times, want 2", calls.Load())
	}
	if dh, dm := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses; dh != 0 || dm != 1 {
		t.Errorf("the recompute counted %d hits and %d misses, want 0 and 1", dh, dm)
	}
	if rec.Body.String() != first.Body.String() {
		t.Error("the recomputed curve differs from the first")
	}
	if rec := getCurve(t, s, raw); rec.Header().Get("X-Cache") != "hit" || statsz(t, s).Cache.AliasHits != after.Cache.AliasHits+1 {
		t.Error("the recomputed curve is not an alias hit")
	}
}

// TestAliasUnknownTraceNotAliased: a hash that was never uploaded is a
// 404 every time and never aliased; once uploaded, the same query
// resolves.
func TestAliasUnknownTraceNotAliased(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	raw, _ := testTraceBytes(t, "microseq", 3, 1_000)
	sum := sha256.Sum256(raw)
	hash := hex.EncodeToString(sum[:])
	query := "trace=" + hash
	for i := 0; i < 2; i++ {
		rec := do(t, s, http.MethodGet, "/v1/curves?"+query, nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("request %d: status %d, want 404", i, rec.Code)
		}
		if code := decodeAPIError(t, rec); code != "trace_not_found" {
			t.Errorf("request %d: code %q, want trace_not_found", i, code)
		}
		if _, ok := s.aliases.lookup(query); ok {
			t.Fatalf("request %d: a trace_not_found query was aliased", i)
		}
	}
	if info, err := s.store.Put(bytes.NewReader(raw)); err != nil || info.Hash != hash {
		t.Fatalf("upload: %v, hash %s, want %s", err, info.Hash, hash)
	}
	if rec := getCurve(t, s, query); rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("after upload: X-Cache %q, want miss", rec.Header().Get("X-Cache"))
	}
}

// TestAliasFloodBounded: four clients send ten times the table's slots
// in unique valid queries (and some too long to hold), all resolving to
// a curve already cached. No curve leaves the result cache, every one
// is still a hit, and the table holds at most one entry per slot, each
// within the query cap.
func TestAliasFloodBounded(t *testing.T) {
	s, hash := newTestServer(t, Config{})
	hot := []string{
		"trace=" + hash + "&engine=fused",
		"trace=" + hash + "&engine=fused&policy=lru",
		"trace=" + hash + "&engine=analytic",
	}
	for _, raw := range hot {
		getCurve(t, s, raw)
	}
	before := statsz(t, s)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < 10*aliasSlots; i += clients {
				// sample_size is a knob the fused engine ignores, so every
				// query is valid and resolves to the first hot curve.
				raw := fmt.Sprintf("trace=%s&engine=fused&sample_size=%d", hash, i)
				if i%10 == 0 {
					raw += "&pad=" + strings.Repeat("x", maxAliasQuery)
				}
				req := httptest.NewRequest(http.MethodGet, "/v1/curves?"+raw, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
					errs <- fmt.Sprintf("%s: status %d, X-Cache %q", raw, rec.Code, rec.Header().Get("X-Cache"))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	after := statsz(t, s)
	if after.Cache.Evictions != before.Cache.Evictions || after.Cache.Entries != before.Cache.Entries {
		t.Errorf("the flood moved the result cache: %+v -> %+v", before.Cache, after.Cache)
	}
	if dm := after.Cache.Misses - before.Cache.Misses; dm != 0 {
		t.Errorf("the flood counted %d misses", dm)
	}
	for _, raw := range hot {
		if x := getCurve(t, s, raw).Header().Get("X-Cache"); x != "hit" {
			t.Errorf("%s after the flood: X-Cache %q, want hit", raw, x)
		}
	}
	entries, bytes := 0, 0
	for i := range s.aliases.slots {
		e := s.aliases.slots[i].Load()
		if e == nil {
			continue
		}
		if len(e.raw) > maxAliasQuery {
			t.Fatalf("slot %d holds a %d-byte query, over the %d-byte cap", i, len(e.raw), maxAliasQuery)
		}
		entries++
		bytes += len(e.raw) + len(e.key)
	}
	if entries > aliasSlots || bytes > aliasSlots*2*maxAliasQuery {
		t.Errorf("alias table holds %d entries, %d bytes", entries, bytes)
	}
	t.Logf("alias table after the flood: %d of %d slots, %d bytes of queries and keys", entries, aliasSlots, bytes)
}

// TestAliasTable pins the table on its own: a lookup finds what was
// installed, a query over the cap is never held, and a later query for
// the same slot replaces the earlier one.
func TestAliasTable(t *testing.T) {
	a := newAliasTable()
	a.install("trace=a", "key-a")
	if k, ok := a.lookup("trace=a"); !ok || k != "key-a" {
		t.Errorf("lookup = %q, %t", k, ok)
	}
	if _, ok := a.lookup("trace=b"); ok {
		t.Error("lookup of a query never installed hit")
	}
	long := "trace=" + strings.Repeat("a", maxAliasQuery)
	a.install(long, "key-long")
	if _, ok := a.lookup(long); ok {
		t.Error("a query over the cap was held")
	}
	// Find a second query for trace=a's slot.
	other := ""
	for i := 0; other == "" || a.slot(other) != a.slot("trace=a"); i++ {
		other = fmt.Sprintf("trace=%d", i)
	}
	a.install(other, "key-other")
	if _, ok := a.lookup("trace=a"); ok {
		t.Error("a replaced alias still resolves")
	}
	if k, ok := a.lookup(other); !ok || k != "key-other" {
		t.Errorf("lookup of the replacing query = %q, %t", k, ok)
	}
}
