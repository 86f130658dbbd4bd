package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/server"
	"cachepirate/internal/simulate"
	"cachepirate/internal/workload"
)

// serve_mixed: a closed loop of clients against an in-process curve server.
// Callers of a curve service wait for the reply before asking again, hence
// closed loop; the client count is min(nproc, 4), all in this one process.

const (
	// requestsPerSecond sizes the fixed schedule from --seconds: 32 000
	// requests at the benchmark's 16 s, which the 2-vCPU authoring host
	// serves in about 13 s. The work is fixed, not the time, so every run of
	// a seed serves the same multiset of requests.
	requestsPerSecond = 2000
	// scheduleBlock requests hold exactly one miss, so the hit ratio is
	// 0.99 to the request at any schedule length.
	scheduleBlock = 100
	// hotKeys is the pre-warmed hot set the hits draw from.
	hotKeys = 8
	// servedRecords is the length of each uploaded trace: a miss replays it
	// twice (warm and measured pass) through 16 replicas.
	servedRecords = 25_000
)

// servedWorkloads are the suite workloads the uploaded traces come from, and
// servedPolicies the L3 policies a key can ask for; a key is (trace, policy).
// plru is left out: a ByWays sweep visits way counts that are not powers of
// two, which the pseudo-LRU tree cannot model. nowarm is left out of the key
// because it halves a miss's work, and a median over two equal modes is
// unsteady.
var (
	servedWorkloads = []string{"omnetpp", "mcf", "libquantum", "sphinx3"}
	servedPolicies  = []string{"nehalem", "lru", "random"}
)

// request is one scheduled GET /v1/curves: key indexes the hot set for a
// hit, the never-requested keys for a miss.
type request struct {
	key  int
	miss bool
}

// schedule is the seed's request sequence: n/scheduleBlock blocks, each with
// one miss at a seeded position; each miss asks for a different key, in a
// seeded order.
func schedule(seed uint64, n int) []request {
	rng := rand.New(rand.NewSource(int64(seed)))
	blocks := n / scheduleBlock
	order := rng.Perm(blocks)
	reqs := make([]request, 0, blocks*scheduleBlock)
	for b := 0; b < blocks; b++ {
		at := rng.Intn(scheduleBlock)
		for i := 0; i < scheduleBlock; i++ {
			if i == at {
				reqs = append(reqs, request{key: order[b], miss: true})
			} else {
				reqs = append(reqs, request{key: rng.Intn(hotKeys)})
			}
		}
	}
	return reqs
}

// serveEnv is one running server with its uploaded traces.
type serveEnv struct {
	base    string
	store   *server.Store
	srv     *server.Server
	httpSrv *http.Server
	served  chan struct{} // closed when Serve has returned
	client  *http.Client
	hot     []string // URLs of the warmed keys
	hotBody [][]byte
	miss    []string // URLs of keys no one has requested
}

// startServer runs a curve server with a fresh store in dir on a loopback
// port. close stops it and waits for its goroutine.
func startServer(dir string, cfg server.Config) (*serveEnv, error) {
	store, err := server.NewStore(dir)
	if err != nil {
		return nil, err
	}
	cfg.Store = store
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		base:    "http://" + ln.Addr().String(),
		store:   store,
		srv:     srv,
		httpSrv: &http.Server{Handler: srv},
		served:  make(chan struct{}),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxProcs}},
	}
	go func() {
		defer close(e.served)
		if err := e.httpSrv.Serve(ln); err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "bench: curve server:", err)
		}
	}()
	return e, nil
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	_ = e.httpSrv.Close() // only reports a listener already closed
	<-e.served
	e.srv.Close()
}

// get fetches url and returns the status, the X-Cache header and the body.
func (e *serveEnv) get(url string) (int, string, []byte, error) {
	resp, err := e.client.Get(url)
	if err != nil {
		return 0, "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// getCurve is get for a request that must be a computed (miss) curve.
func (e *serveEnv) getCurve(url string) ([]byte, error) {
	status, xcache, body, err := e.get(url)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK || xcache != "miss" {
		return nil, fmt.Errorf("GET %s: status %d, X-Cache %q, want 200 miss: %s", url, status, xcache, body)
	}
	return body, nil
}

func (e *serveEnv) stats() (server.Stats, error) {
	var st server.Stats
	status, _, body, err := e.get(e.base + "/statsz")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// upload captures a short trace of a suite workload and POSTs it. Some
// generators ignore their seed (a pure sequential scan has nothing to
// randomise) and the store dedupes identical uploads, so every capture also
// starts at its own offset into the stream.
func (e *serveEnv) upload(wl string, seed uint64, skip, records int) (string, error) {
	tr := simulate.CaptureTrace(workload.MustByName(wl).New, seed, skip, records)
	var buf bytes.Buffer
	if err := tr.WriteV2(&buf); err != nil {
		return "", err
	}
	resp, err := e.client.Post(e.base+"/v1/traces", "application/octet-stream", &buf)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("upload %s: status %d: %s", wl, resp.StatusCode, body)
	}
	var info server.TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return "", err
	}
	return info.Hash, nil
}

// serveSetup starts the default-config server, uploads enough traces for the
// hot set and for one fresh key per scheduled miss, and warms the hot set.
func (r *run) serveSetup(dir string, misses int) (_ *serveEnv, err error) {
	e, err := startServer(dir, server.Config{})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	perTrace := len(servedPolicies)
	traces := (hotKeys + misses + perTrace - 1) / perTrace
	var urls []string
	for i := 0; i < traces; i++ {
		hash, err := e.upload(servedWorkloads[i%len(servedWorkloads)], r.seed*1009+uint64(i), 997*i, r.scaled(servedRecords, 250))
		if err != nil {
			return nil, err
		}
		for _, pol := range servedPolicies {
			urls = append(urls, fmt.Sprintf("%s/v1/curves?trace=%s&engine=fused&policy=%s", e.base, hash, pol))
		}
	}
	e.hot, e.miss = urls[:hotKeys], urls[hotKeys:]
	for _, u := range e.hot {
		body, err := e.getCurve(u)
		if err != nil {
			return nil, fmt.Errorf("warming the hot set: %w", err)
		}
		e.hotBody = append(e.hotBody, body)
	}
	return e, nil
}

// served is the outcome of one scheduled request.
type served struct {
	lat  time.Duration
	body []byte // misses only: checked after the timed phase
	err  error
}

// play runs the schedule through a closed loop of clients and returns each
// request's outcome and the wall time. On a traced run odd requests are
// spans, so their latencies against the even ones give the tracing overhead.
func (r *run) play(e *serveEnv, reqs []request) ([]served, time.Duration) {
	out := make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < procs(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				var url, want string
				if q.miss {
					url, want = e.miss[q.key], "miss"
				} else {
					url, want = e.hot[q.key], "hit"
				}
				end := func(int64) {}
				if r.tr != nil && i%2 == 1 {
					_, end = spanCtx{tr: r.tr, parent: -1, op: i}.startN("server.request")
				}
				start := time.Now()
				status, xcache, body, err := e.get(url)
				out[i].lat = time.Since(start)
				end(int64(len(body)))
				switch {
				case err != nil:
					out[i].err = err
				case status != http.StatusOK:
					out[i].err = fmt.Errorf("status %d: %s", status, body)
				case xcache != want:
					out[i].err = fmt.Errorf("X-Cache %q, schedule says %q", xcache, want)
				case q.miss:
					out[i].body = body
				case !bytes.Equal(body, e.hotBody[q.key]):
					out[i].err = fmt.Errorf("hit body differs from the warmed payload")
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// checkMissBody requires a computed response to be a full 16-point curve.
func checkMissBody(body []byte) error {
	c, err := analysis.ReadCurveJSON(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if want := nehalem().L3.Ways; len(c.Points) != want {
		return fmt.Errorf("miss body is a %d-point curve, want %d", len(c.Points), want)
	}
	return nil
}

// runServe is the life of serve_mixed.
func (r *run) runServe(root string, updateGolden bool) error {
	r.workUnit = "curves"
	// At least ten blocks, so that even the smoke test has more misses than
	// hot keys and a mix-up of the two key spaces cannot pass.
	n := r.scaled(int(requestsPerSecond*r.seconds), 10*scheduleBlock) / scheduleBlock * scheduleBlock
	reqs := schedule(r.seed, n)
	misses := n / scheduleBlock

	reps := setupReps
	if r.traced {
		reps = 1
	}
	var e *serveEnv
	var setups []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = r.serveSetup(filepath.Join(r.dir, fmt.Sprintf("store%d", i)), misses)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	r.e2e["setup_s"] = median(setups)

	before, err := e.stats()
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out, wall := r.play(e, reqs)
	runtime.ReadMemStats(&ms1)
	after, err := e.stats()
	if err != nil {
		return err
	}

	var miss, hitTraced, hitPlain []float64
	for i, s := range out {
		r.attempted++
		err := s.err
		if err == nil && reqs[i].miss {
			err = checkMissBody(s.body)
		}
		switch {
		case err != nil:
			r.opFailed("request %d: %v", i, err)
		case reqs[i].miss:
			miss = append(miss, ms(s.lat))
		case i%2 == 1:
			hitTraced = append(hitTraced, ms(s.lat))
		default:
			hitPlain = append(hitPlain, ms(s.lat))
		}
	}
	hit := append(append([]float64(nil), hitPlain...), hitTraced...)
	if len(hit) == 0 || len(miss) == 0 {
		return fmt.Errorf("no correct response in a class (%d hits, %d misses): %v", len(hit), len(miss), r.problems)
	}
	r.samples = len(hit) + len(miss)
	r.e2e["work_per_s"] = float64(r.samples) / wall.Seconds()
	r.e2e["op_ms_p50"] = median(hit)
	r.e2e["compute_ms_p50"] = median(miss)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss

	// The server's own counters must agree with the schedule.
	dh, dm := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if int(dh) != n-misses || int(dm) != misses {
		r.oracleFail("/statsz counted %d hits and %d misses, the schedule has %d and %d", dh, dm, n-misses, misses)
	}
	var hotCurves []*analysis.Curve
	for i, body := range e.hotBody {
		c, err := analysis.ReadCurveJSON(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("hot payload %d: %w", i, err)
		}
		hotCurves = append(hotCurves, c)
	}
	if err := r.checkGolden(root, hotCurves, updateGolden); err != nil {
		return err
	}
	r.exact["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	if !r.traced {
		return nil
	}

	r.layer["tracing_overhead"] = median(hitTraced) / median(hitPlain)
	r.layer["go.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n) / (1 << 20)
	r.layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	r.layer["server.cache_hit_ratio"] = float64(dh) / float64(dh+dm)
	r.layer["server.flights_deduped"] = float64(after.Deduped - before.Deduped)
	r.layer["server.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	r.layer["server.rejected"] = float64(after.Cache.Rejected - before.Cache.Rejected)
	r.layer["server.write_failures"] = float64(after.WriteFailures - before.WriteFailures)
	if v, pct, ok := tailAt(hit, 0.99); ok {
		r.layer["server.hit_ms_p99"] = v
		r.notes["server.hit_ms_p99"] = tailNote(pct, len(hit))
	}
	if v, pct, ok := tailAt(miss, 0.95); ok {
		r.layer["server.miss_ms_p95"] = v
		r.notes["server.miss_ms_p95"] = tailNote(pct, len(miss))
	}
	return r.serveStages(e.hotBody[0])
}

// serveStages measures the miss path engine by engine on a server with the
// result cache off, so every request computes, and sets the fused figure
// against the same sweep called directly.
func (r *run) serveStages(payload []byte) error {
	big := filepath.Join(r.dir, "big.trace")
	if err := captureFile(big, "omnetpp", r.seed, r.scaled(replayRecords, 4000)); err != nil {
		return err
	}
	e, err := startServer(filepath.Join(r.dir, "store-nocache"), server.Config{CacheBytes: -1})
	if err != nil {
		return err
	}
	defer e.close()
	var info server.TraceInfo
	d, err := r.stage("server.Store.Put", func() error {
		f, err := os.Open(big)
		if err != nil {
			return err
		}
		defer f.Close()
		info, err = e.store.Put(f)
		return err
	})
	if err != nil {
		return err
	}
	r.layer["server.store_put_ms"] = ms(d)

	// analytic_default sends no sample_rate, as cmd/curveload does: the
	// server then profiles at rate 1.0.
	variants := []struct{ name, query string }{
		{"fused", "engine=fused"},
		{"persize", "engine=persize"},
		{"mattson", "engine=mattson&policy=lru"},
		{"analytic_default", "engine=analytic&policy=lru"},
		{"analytic_r0.01", "engine=analytic&policy=lru&sample_rate=0.01"},
	}
	direct := simulate.Config{Machine: nehalem(), Engine: simulate.EngineFused, Workers: 1}
	times := map[string][]float64{}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, v := range variants {
			d, err := r.stage("server.miss/"+v.name, func() error {
				_, err := e.getCurve(fmt.Sprintf("%s/v1/curves?trace=%s&%s", e.base, info.Hash, v.query))
				return err
			})
			if err != nil {
				return err
			}
			times[v.name] = append(times[v.name], ms(d))
		}
		d, err := r.stage("simulate.SweepStream/direct", func() error {
			_, err := simulate.SweepStream(direct, opener(big, spanCtx{}))
			return err
		})
		if err != nil {
			return err
		}
		times["direct"] = append(times["direct"], ms(d))
	}
	for _, v := range variants {
		r.layer["server.miss_ms."+v.name] = median(times[v.name])
	}
	r.layer["server.http_overhead_ms"] = median(times["fused"]) - median(times["direct"])

	var codec []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		c, err := analysis.ReadCurveJSON(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		if err := c.WriteJSON(io.Discard); err != nil {
			return err
		}
		codec = append(codec, float64(time.Since(t0))/1e3)
	}
	r.layer["analysis.curve_json_us"] = median(codec)
	return nil
}
