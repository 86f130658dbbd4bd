package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cachepirate/internal/analysis"
	"cachepirate/internal/report"
	"cachepirate/internal/runner"
	"cachepirate/internal/simulate"
	"cachepirate/internal/workload"
)

// Config parameterises a Server. The zero value is usable: every
// field has a sensible default filled in by New.
type Config struct {
	// Store holds uploaded and captured traces. Required.
	Store *Store
	// CacheBytes is the result-cache budget (default 64 MiB;
	// negative disables caching). A sixteenth of it more holds the
	// policy-free points of fused sweeps, which a request for the same
	// trace under another policy reuses instead of replaying.
	CacheBytes int64
	// Workers is the job-queue worker count (default GOMAXPROCS).
	Workers int
	// SweepWorkers is how many replica groups of one fused-sweep job
	// replay at once (default 1: a job is one queue slot, and server
	// throughput comes from running many jobs). Widen it on
	// latency-sensitive deployments where a single big sweep should use
	// several cores; the curve is bit-identical at any width.
	SweepWorkers int
	// Backlog is the queued-job limit beyond the running jobs;
	// arrivals past it are refused with 429 (default 4×workers).
	Backlog int
	// JobTimeout bounds one curve computation (default 120s). The
	// deadline propagates through the queue into the replay loops.
	JobTimeout time.Duration
	// MaxUploadBytes bounds one trace upload (default 256 MiB).
	MaxUploadBytes int64
	// Compute overrides the production engine dispatch; tests inject
	// counting or stalling stand-ins here.
	Compute ComputeFunc
}

// Server is the HTTP curve service. See the package comment for the
// moving parts and DESIGN.md §11 for the endpoint and error taxonomy.
type Server struct {
	store        *Store
	cache        *lruCache[[]byte]
	points       *lruCache[policyFree]
	flights      *flightGroup
	queue        *runner.Queue
	compute      ComputeFunc
	jobTimeout   time.Duration
	maxUpload    int64
	sweepWorkers int
	mux          *http.ServeMux

	jobsServed     atomic.Uint64
	replicasReused atomic.Int64

	// aliases answers a repeated curve query without parsing it, and
	// aliasHits counts the hits it answered.
	aliases   *aliasTable
	aliasHits atomic.Uint64

	// writeFailures counts response writes that failed mid-body
	// (client gone, connection reset). The response status is already
	// committed by then, so the only honest handling is to surface the
	// count in /statsz; silently dropping the error would hide
	// truncated responses from the serving metrics.
	writeFailures atomic.Uint64
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 120 * time.Second
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 256 << 20
	}
	if cfg.SweepWorkers <= 0 {
		cfg.SweepWorkers = 1
	}
	s := &Server{
		store:        cfg.Store,
		cache:        newResultCache(cfg.CacheBytes),
		points:       newPointStore(cfg.CacheBytes / pointStoreShare),
		flights:      newFlightGroup(),
		queue:        runner.NewQueue(cfg.Workers, cfg.Backlog),
		compute:      cfg.Compute,
		jobTimeout:   cfg.JobTimeout,
		maxUpload:    cfg.MaxUploadBytes,
		sweepWorkers: cfg.SweepWorkers,
		mux:          http.NewServeMux(),
		aliases:      newAliasTable(),
	}
	if s.compute == nil {
		s.compute = s.computeDirect
	}
	s.mux.HandleFunc("/v1/traces", s.handleTraces)
	s.mux.HandleFunc("/v1/traces/", s.handleTraceInfo)
	s.mux.HandleFunc("/v1/curves", s.handleCurve)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the job queue. In-flight jobs finish; new ones are
// refused with 503.
func (s *Server) Close() {
	s.queue.Close()
}

// apiError is the error taxonomy every endpoint speaks: an HTTP
// status plus a machine-readable code, serialised as
// {"error":{"code":...,"message":...}}.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

func badRequest(code, msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: msg}
}

type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	var body errorBody
	body.Error.Code = e.code
	body.Error.Message = e.msg
	w.Header().Set("Content-Type", "application/json")
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(e.status)
	// Encoding two strings cannot fail, so an error here means the
	// client connection broke mid-body: count it.
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.writeFailures.Add(1)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.writeFailures.Add(1)
	}
}

// methodErr emits the documented 405 (with Allow header) and reports
// whether the request was rejected.
func (s *Server) methodErr(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for _, m := range allowed {
		if r.Method == m {
			return false
		}
	}
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	s.writeError(w, &apiError{
		status: http.StatusMethodNotAllowed,
		code:   "method_not_allowed",
		msg:    fmt.Sprintf("%s is not allowed here (want %s)", r.Method, strings.Join(allowed, " or ")),
	})
	return true
}

// handleTraces is POST /v1/traces (upload) and GET /v1/traces (list).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, struct {
			Traces []TraceInfo `json:"traces"`
		}{s.store.List()})
	case http.MethodPost:
		body := http.MaxBytesReader(w, r.Body, s.maxUpload)
		info, err := s.store.Put(body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.writeError(w, &apiError{
					status: http.StatusRequestEntityTooLarge,
					code:   "body_too_large",
					msg:    fmt.Sprintf("upload exceeds the %d-byte limit", tooBig.Limit),
				})
				return
			}
			s.writeError(w, badRequest("invalid_trace", err.Error()))
			return
		}
		s.writeJSON(w, http.StatusCreated, info)
	default:
		s.methodErr(w, r, http.MethodGet, http.MethodPost)
	}
}

// handleTraceInfo is GET /v1/traces/{hash}.
func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	if s.methodErr(w, r, http.MethodGet) {
		return
	}
	hash := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	info, ok := s.store.Info(hash)
	if !ok {
		s.writeError(w, &apiError{status: http.StatusNotFound, code: "trace_not_found", msg: fmt.Sprintf("no trace %s", hash)})
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// handleWorkloads is GET /v1/workloads.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if s.methodErr(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Workloads []string `json:"workloads"`
	}{workload.Names()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.methodErr(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := fmt.Fprintln(w, "ok"); err != nil {
		s.writeFailures.Add(1)
	}
}

// Stats is the /statsz payload.
type Stats struct {
	Cache        CacheStats `json:"cache"`
	CacheHitRate float64    `json:"cache_hit_rate"`
	QueueDepth   int        `json:"queue_depth"`
	QueueRunning int        `json:"queue_running"`
	JobsServed   uint64     `json:"jobs_served"`
	Deduped      uint64     `json:"flights_deduped"`
	Traces       int        `json:"traces"`
	// SweepWorkers is how many replica groups of one job's fused sweep
	// replay at once.
	SweepWorkers int `json:"sweep_workers"`
	// Sweep counts how the sizes of fused curves got their points: why
	// one miss costs a fraction of another. A cache hit moves none.
	Sweep SweepStats `json:"sweep"`
	// WriteFailures counts responses whose body write failed after the
	// status was committed (client disconnects, resets).
	WriteFailures uint64 `json:"write_failures"`
}

// SweepStats is the /statsz sweep block.
type SweepStats struct {
	// ReplicaStats counts, over every fused sweep of the process, the
	// sizes replayed and the sizes that took the largest size's point
	// because the trace cannot overflow them.
	simulate.ReplicaStats
	// ReplicasReused counts, over this server's fused curves, the sizes
	// that took a policy-free point of an earlier sweep of the same
	// trace, mode and warm-up under another policy: no replay at all.
	ReplicasReused int64 `json:"replicas_reused"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if s.methodErr(w, r, http.MethodGet) {
		return
	}
	cs := s.cache.Stats()
	cs.AliasHits = s.aliasHits.Load()
	s.writeJSON(w, http.StatusOK, Stats{
		Cache:         cs,
		CacheHitRate:  cs.HitRate(),
		QueueDepth:    s.queue.Depth(),
		QueueRunning:  s.queue.Running(),
		JobsServed:    s.jobsServed.Load(),
		Deduped:       s.flights.Deduped(),
		Traces:        s.store.Len(),
		SweepWorkers:  s.sweepWorkers,
		Sweep:         SweepStats{simulate.SweepReplicaStats(), s.replicasReused.Load()},
		WriteFailures: s.writeFailures.Load(),
	})
}

// handleCurve is GET /v1/curves: a query answered before is one alias
// lookup and one result-cache Get; any other parses and validates the
// job, consults the result cache, and otherwise runs the job once per
// key through singleflight + the bounded queue.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	if s.methodErr(w, r, http.MethodGet) {
		return
	}
	raw := r.URL.RawQuery
	key, aliased := s.aliases.lookup(raw)
	if aliased {
		if payload, ok := s.cache.Get(key); ok {
			s.aliasHits.Add(1)
			s.serveCurve(w, JobSpec{}, payload, "json", "hit")
			return
		}
		// The curve was evicted, and that Get counted the miss.
	}
	q := r.URL.Query() // parsed once, for the spec and the format
	spec, aerr := parseJobSpec(q, s.store)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" {
		s.writeError(w, badRequest("unknown_format", fmt.Sprintf("unknown format %q (want json or csv)", format)))
		return
	}

	if !aliased {
		key = spec.Key()
		if format == "json" {
			s.aliases.install(raw, key)
		}
		if payload, ok := s.cache.Get(key); ok {
			s.serveCurve(w, spec, payload, format, "hit")
			return
		}
	}

	payload, err, shared := s.flights.Do(r.Context(), key, func(fctx context.Context) ([]byte, error) {
		jctx, cancel := context.WithTimeout(fctx, s.jobTimeout)
		defer cancel()
		var encoded []byte
		qerr := s.queue.Do(jctx, func(jobCtx context.Context) error {
			curve, err := s.compute(jobCtx, spec)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := curve.WriteJSON(&buf); err != nil {
				return err
			}
			encoded = buf.Bytes()
			return nil
		})
		if qerr != nil {
			return nil, qerr
		}
		s.cache.Put(key, encoded)
		s.jobsServed.Add(1)
		return encoded, nil
	})
	if err != nil {
		// A client that disconnected gets no response at all; anything
		// else maps onto the taxonomy.
		if r.Context().Err() != nil {
			return
		}
		s.writeError(w, curveError(err))
		return
	}
	source := "miss"
	if shared {
		source = "dedup"
	}
	s.serveCurve(w, spec, payload, format, source)
}

// curveError maps compute-path failures onto the error taxonomy.
func curveError(err error) *apiError {
	var aerr *apiError
	var empty *simulate.EmptySampleError
	switch {
	case errors.As(err, &aerr):
		return aerr
	case errors.As(err, &empty):
		return &apiError{status: http.StatusUnprocessableEntity, code: "empty_sample", msg: err.Error()}
	case errors.Is(err, runner.ErrQueueFull):
		return &apiError{status: http.StatusTooManyRequests, code: "queue_full", msg: "job queue is full; retry shortly"}
	case errors.Is(err, runner.ErrQueueClosed):
		return &apiError{status: http.StatusServiceUnavailable, code: "shutting_down", msg: "server is draining; retry against another replica"}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: "job_timeout", msg: "curve computation exceeded the job deadline"}
	case errors.Is(err, context.Canceled):
		return &apiError{status: http.StatusServiceUnavailable, code: "job_cancelled", msg: "curve computation was cancelled"}
	default:
		return &apiError{status: http.StatusInternalServerError, code: "compute_failed", msg: err.Error()}
	}
}

// serveCurve writes an encoded curve in the requested format, with its
// length: a body net/http would otherwise send chunked.
// X-Cache reports how the result was obtained: hit (result cache),
// dedup (piggybacked on an in-flight job) or miss (computed fresh).
func (s *Server) serveCurve(w http.ResponseWriter, spec JobSpec, payload []byte, format, source string) {
	h := w.Header()
	h.Set("X-Cache", source)
	if format == "csv" {
		curve, err := analysis.ReadCurveJSON(bytes.NewReader(payload))
		if err != nil {
			s.writeError(w, &apiError{status: http.StatusInternalServerError, code: "compute_failed", msg: err.Error()})
			return
		}
		payload = []byte(report.CurveTable(spec.title(), curve).CSV())
		h.Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		h.Set("Content-Type", "application/json")
	}
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(payload); err != nil {
		s.writeFailures.Add(1)
	}
}

func (j JobSpec) title() string {
	src := j.TraceHash
	if len(src) > 12 {
		src = src[:12]
	}
	if j.Workload != "" {
		src = j.Workload
	}
	return fmt.Sprintf("%s (%s)", src, j.Engine)
}
