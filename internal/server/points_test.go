package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"

	"cachepirate/internal/analysis"
)

// policyServer starts a production server (real engines) over a fresh
// store holding raw, with two queue workers, and returns it with the
// trace's hash.
func policyServer(t *testing.T, raw []byte) (*Server, string) {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Put(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, info.Hash
}

// fetchCurve returns the body of a curve request that must be computed
// (X-Cache miss). It reports instead of failing, so goroutines may call it.
func fetchCurve(t *testing.T, s *Server, hash, query string) ([]byte, error) {
	rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash+query, nil)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d (body %q)", query, rec.Code, rec.Body.String())
	}
	if x := rec.Header().Get("X-Cache"); x != "miss" {
		return nil, fmt.Errorf("%s: X-Cache %q, want miss", query, x)
	}
	return rec.Body.Bytes(), nil
}

func sweepStats(t *testing.T, s *Server) SweepStats {
	t.Helper()
	var st Stats
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/statsz", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Sweep
}

// TestPolicyVariantsReuseBytesIdentical: on a server that has swept a
// trace under one policy, a request for the same trace, mode and
// warm-up under another replays only the sizes that are not
// policy-free, and its response is byte-equal to a cold server's for
// that key. Another mode or warm-up reuses nothing. The trace is one
// the curve server's load test uploads (25k omnetpp records), whose
// smallest sizes by ways evict and whose larger ones do not.
func TestPolicyVariantsReuseBytesIdentical(t *testing.T) {
	raw, _ := testTraceBytes(t, "omnetpp", 1, 25_000)
	cold := func(query string) []byte {
		t.Helper()
		s, hash := policyServer(t, raw)
		body, err := fetchCurve(t, s, hash, query)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	s, hash := policyServer(t, raw)
	var first int64
	for _, step := range []struct {
		query string
		first bool // the first request of its trace, mode and warm-up
	}{
		{"&policy=nehalem", true},
		{"&policy=lru", false},
		{"&policy=random", false},
		{"&policy=lru&mode=sets", true},
		{"&policy=plru&mode=sets", false},
		{"&policy=random&mode=sets", false},
		{"&policy=nehalem&mode=sets", false},
		{"&policy=random&nowarm=true", true},
		{"&policy=nehalem&nowarm=true", false},
	} {
		query := "&engine=fused" + step.query
		before := sweepStats(t, s)
		got, err := fetchCurve(t, s, hash, query)
		if err != nil {
			t.Fatal(err)
		}
		after := sweepStats(t, s)
		replayed := after.ReplicasReplayed - before.ReplicasReplayed
		reused := after.ReplicasReused - before.ReplicasReused
		switch {
		case step.first:
			first = replayed
			if reused != 0 {
				t.Errorf("%s: the first sweep of its key reused %d points", step.query, reused)
			}
		case reused < 1 || replayed >= first:
			t.Errorf("%s: replayed %d sizes and reused %d, the first sweep of its key replayed %d", step.query, replayed, reused, first)
		}
		if want := cold(query); !bytes.Equal(got, want) {
			t.Errorf("%s: the response after reuse differs from a cold server's:\n%s\nwant\n%s", step.query, got, want)
		}
	}
	// Two variants of one trace in flight at once: both miss the point
	// store or one reuses what the other stored, and either way each
	// response, and a third variant's after them, is the cold one.
	t.Run("in flight together", func(t *testing.T) {
		s, hash := policyServer(t, raw)
		var arrived sync.WaitGroup
		arrived.Add(2)
		s.compute = func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
			arrived.Done()
			arrived.Wait()
			return s.computeDirect(ctx, spec)
		}
		queries := []string{"&engine=fused&policy=nehalem", "&engine=fused&policy=lru"}
		bodies := make([][]byte, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[i], errs[i] = fetchCurve(t, s, hash, q)
			}()
		}
		wg.Wait()
		s.compute = s.computeDirect
		queries = append(queries, "&engine=fused&policy=random")
		body, err := fetchCurve(t, s, hash, queries[2])
		bodies, errs = append(bodies, body), append(errs, err)
		for i, q := range queries {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if want := cold(q); !bytes.Equal(bodies[i], want) {
				t.Errorf("%s: the response differs from a cold server's", q)
			}
		}
	})
}

// TestPolicyOrdersReuseBytesIdentical: in every order of Nehalem, LRU
// and Random over one 25k-record omnetpp upload, each response is
// byte-equal to a cold server's for its key; the second and third
// requests sweep from the stored points, with no footprint probe, so
// they clone nothing; and whichever of Nehalem and LRU comes later
// replays one size fewer than the other reuse miss, since the 2-way
// point the earlier of the two stored (or kept over Random's) holds
// for both.
func TestPolicyOrdersReuseBytesIdentical(t *testing.T) {
	raw, _ := testTraceBytes(t, "omnetpp", 1, 25_000)
	policies := []string{"nehalem", "lru", "random"}
	want := map[string][]byte{}
	for _, p := range policies {
		s, hash := policyServer(t, raw)
		body, err := fetchCurve(t, s, hash, "&engine=fused&policy="+p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = body
	}
	for _, order := range [][3]string{
		{"nehalem", "lru", "random"}, {"nehalem", "random", "lru"},
		{"lru", "nehalem", "random"}, {"lru", "random", "nehalem"},
		{"random", "nehalem", "lru"}, {"random", "lru", "nehalem"},
	} {
		s, hash := policyServer(t, raw)
		replayed := map[string]int64{}
		for i, p := range order {
			before := sweepStats(t, s)
			got, err := fetchCurve(t, s, hash, "&engine=fused&policy="+p)
			if err != nil {
				t.Fatal(err)
			}
			after := sweepStats(t, s)
			if !bytes.Equal(got, want[p]) {
				t.Errorf("%v: the %s response differs from a cold server's", order, p)
			}
			if i == 0 {
				continue
			}
			replayed[p] = after.ReplicasReplayed - before.ReplicasReplayed
			if dc := after.ReplicasCloned - before.ReplicasCloned; dc != 0 {
				t.Errorf("%v: the %s reuse sweep cloned %d sizes, want none (no probe)", order, p, dc)
			}
		}
		later := "lru"
		if slices.Index(order[:], "nehalem") > slices.Index(order[:], "lru") {
			later = "nehalem"
		}
		other := order[1]
		if other == later {
			other = order[2]
		}
		if replayed[later] != replayed[other]-1 {
			t.Errorf("%v: the %s reuse miss replayed %d sizes and the %s one %d, want one fewer", order, later, replayed[later], other, replayed[other])
		}
	}
}
