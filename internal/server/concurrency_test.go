package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
)

// TestConcurrentSameKeySingleReplay: N goroutines requesting the same
// curve while it computes must trigger exactly one engine run — the
// others piggyback on the in-flight job (caching is disabled so the
// result cache cannot mask a singleflight failure).
func TestConcurrentSameKeySingleReplay(t *testing.T) {
	const clients = 24
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s, hash := newTestServer(t, Config{
		CacheBytes: -1, // singleflight must do all the dedup work
		Compute: func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
			if computes.Add(1) == 1 {
				close(started)
			}
			<-release
			return stubCurve(), nil
		},
	})

	results := make([]struct {
		status int
		xcache string
		body   string
	}, clients)
	var wg sync.WaitGroup
	launch := func(i int) {
		defer wg.Done()
		rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash, nil)
		results[i].status = rec.Code
		results[i].xcache = rec.Header().Get("X-Cache")
		results[i].body = rec.Body.String()
	}
	wg.Add(1)
	go launch(0)
	<-started
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go launch(i)
	}
	// Every follower joins the flight before the leader finishes.
	for s.flights.Deduped() < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("engine ran %d times for %d identical requests, want 1", n, clients)
	}
	var miss, dedup int
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("client %d: status %d (body %q)", i, r.status, r.body)
		}
		if r.body != results[0].body {
			t.Errorf("client %d body differs from client 0", i)
		}
		switch r.xcache {
		case "miss":
			miss++
		case "dedup":
			dedup++
		default:
			t.Errorf("client %d: X-Cache = %q", i, r.xcache)
		}
	}
	if miss != 1 || dedup != clients-1 {
		t.Errorf("X-Cache split miss=%d dedup=%d, want 1/%d", miss, dedup, clients-1)
	}
}

// TestConcurrentDistinctKeys: different jobs must not dedupe into each
// other.
func TestConcurrentDistinctKeys(t *testing.T) {
	var computes atomic.Int64
	s, hash := newTestServer(t, Config{
		Compute: func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
			computes.Add(1)
			c := stubCurve()
			c.Name = spec.Engine.String()
			return c, nil
		},
	})
	engines := []string{"fused", "persize", "analytic"}
	var wg sync.WaitGroup
	for _, eng := range engines {
		wg.Add(1)
		go func(eng string) {
			defer wg.Done()
			rec := do(t, s, http.MethodGet, "/v1/curves?trace="+hash+"&engine="+eng, nil)
			if rec.Code != http.StatusOK {
				t.Errorf("engine %s: status %d", eng, rec.Code)
			}
		}(eng)
	}
	wg.Wait()
	if n := computes.Load(); n != int64(len(engines)) {
		t.Errorf("engine ran %d times, want %d (distinct keys must not dedupe)", n, len(engines))
	}
}

// TestCacheBudgetInvariantConcurrent hammers the result cache from
// many goroutines while a watcher asserts the byte budget is never
// exceeded — the satellite's LRU stress + invariant check. Run under
// -race this also proves the sharded locking is sound.
func TestCacheBudgetInvariantConcurrent(t *testing.T) {
	const (
		budget  = 256 * 1024
		writers = 8
		puts    = 3_000
	)
	c := newResultCache(budget)
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if b := c.Bytes(); b > budget {
					t.Errorf("cache holds %d bytes, budget %d", b, budget)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("curve-%d", rng.Intn(500))
				val := make([]byte, 64+rng.Intn(2048))
				c.Put(key, val)
				if rng.Intn(4) == 0 {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watcher.Wait()

	if b := c.Bytes(); b > budget {
		t.Fatalf("final cache bytes %d exceed budget %d", b, budget)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("stress never evicted; raise the write volume")
	}
	t.Logf("stress: %+v", st)
}

// TestClientDisconnectCancelsReplay is the regression test for the
// cancellation satellite, end to end at the HTTP layer: a request
// whose client disconnects must have its job context cancelled so the
// replay stops, rather than running to completion against a dead
// connection.
func TestClientDisconnectCancelsReplay(t *testing.T) {
	computeStarted := make(chan struct{})
	computeCancelled := make(chan struct{})
	s, hash := newTestServer(t, Config{
		Compute: func(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
			close(computeStarted)
			select {
			case <-ctx.Done():
				close(computeCancelled)
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return nil, fmt.Errorf("job context never cancelled")
			}
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/curves?trace="+hash, nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-computeStarted
	cancel() // client goes away

	select {
	case <-computeCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("replay kept running after the only client disconnected")
	}
	<-done
}

// TestComputeDirectHonoursCancel: the production compute, handed a
// context that has already ended, returns context.Canceled on every
// path a request can take — each engine over a stored trace, a
// workload capture, and a fused policy variant whose stored points
// leave sizes to replay — and a cancelled capture stores nothing. With
// TestClientDisconnectCancelsReplay (a dead client cancels the job
// context) and simulate's cancel tests (the engines stop on it), this
// pins the chain from the handler to the replay loop: a path that
// swaps in a context of its own fails here.
func TestComputeDirectHonoursCancel(t *testing.T) {
	raw, _ := testTraceBytes(t, "omnetpp", 1, 25_000)
	s, hash := policyServer(t, raw)
	spec := func(query string) JobSpec {
		t.Helper()
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		j, apiErr := parseJobSpec(q, s.store)
		if apiErr != nil {
			t.Fatalf("%s: %v", query, apiErr)
		}
		return j
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	wantCanceled := func(query string) {
		t.Helper()
		if _, err := s.computeDirect(cancelled, spec(query)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: computeDirect with a cancelled ctx = %v, want context.Canceled", query, err)
		}
	}

	for _, engine := range []string{"fused", "persize", "mattson&policy=lru", "analytic"} {
		wantCanceled("trace=" + hash + "&engine=" + engine)
	}

	stored := s.store.Len()
	wantCanceled("workload=microrand&records=2000&engine=fused")
	if n := s.store.Len(); n != stored {
		t.Errorf("a cancelled workload capture stored %d object(s)", n-stored)
	}

	prime := spec("trace=" + hash + "&engine=fused&policy=nehalem")
	if _, err := s.computeDirect(context.Background(), prime); err != nil {
		t.Fatal(err)
	}
	prior, ok := s.points.Get(prime.pointsKey(hash))
	if !ok {
		t.Fatal("the live fused sweep stored no points")
	}
	replay := 0
	for _, h := range prior.Holds {
		if !h.Has(cache.LRU) {
			replay++
		}
	}
	if replay == 0 {
		t.Fatal("the stored points hold for LRU at every size, so the variant replays nothing; use a trace that evicts")
	}
	wantCanceled("trace=" + hash + "&engine=fused&policy=lru")
}
