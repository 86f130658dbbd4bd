package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/simulate"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

// maxCaptureRecords bounds server-side workload captures; bigger
// workloads should be traced offline (cmd/tracer) and uploaded.
const maxCaptureRecords = 8_000_000

// defaultPolicy is the L3 policy of a request that names none.
const defaultPolicy = cache.Nehalem

// JobSpec is one curve request, fully resolved and validated: either
// a stored trace (TraceHash) or a server-side workload capture
// (Workload/Records/Seed/Skip), plus the engine and model knobs. The
// engines are internal/simulate's, by their String names: "fused" and
// "persize" are the bit-identical full-machine replay engines,
// "mattson" is the exact single-pass LRU stack curve of the bare L3,
// and "analytic" is the SHARDS-sampled threshold-model estimate — the
// server adds no maths of its own. Its Key is the result-cache and
// singleflight identity, so every field that can change the curve
// must be part of it, and parseJobSpec resets every field the engine
// ignores so that one curve has one key.
type JobSpec struct {
	TraceHash string
	Workload  string
	Records   int
	Seed      uint64
	Skip      int

	Engine     simulate.Engine
	Policy     cache.PolicyKind
	Mode       simulate.SweepMode
	NoWarm     bool
	SampleRate float64
	SampleSize int
}

// Key returns the canonical cache/dedup identity of the job.
func (j JobSpec) Key() string {
	src := j.TraceHash
	if j.Workload != "" {
		src = fmt.Sprintf("w:%s:%d:%d:%d", j.Workload, j.Records, j.Seed, j.Skip)
	}
	return fmt.Sprintf("%s|%s|%s|%d|%t|%g|%d",
		src, j.Engine, j.Policy, j.Mode, j.NoWarm, j.SampleRate, j.SampleSize)
}

// simConfig maps the spec onto a sweep config. workers is the
// server's per-job sweep width (Config.SweepWorkers): 1 keeps a curve
// job to one queue slot, so server-level parallelism comes from
// running many jobs; wider replays that many replica groups at once
// for latency, with a bit-identical curve either way. It is
// deliberately NOT part of JobSpec.Key — parallelism never changes the
// result, so cached curves stay valid across width changes.
func (j JobSpec) simConfig(workers int) simulate.Config {
	cfg := simulate.Config{
		Machine:    machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), j.Policy),
		Mode:       j.Mode,
		Engine:     j.Engine,
		SampleRate: j.SampleRate,
		SampleSize: j.SampleSize,
		Workers:    workers,
	}
	if j.NoWarm {
		cfg.WarmPasses = -1
	}
	return cfg
}

// parseJobSpec parses the curve-request query parameters and checks the
// source against the store; whether the engine knobs make a sweep is
// simulate.Config.Validate's call, the rule every front door shares.
// Violations return an *apiError carrying the documented status code
// and machine-readable error code.
func parseJobSpec(q url.Values, store *Store) (JobSpec, *apiError) {
	j := JobSpec{
		Policy:  defaultPolicy,
		Records: 400_000,
		Seed:    1,
	}

	traceHash := q.Get("trace")
	wl := q.Get("workload")
	switch {
	case traceHash == "" && wl == "":
		return j, badRequest("missing_source", "request must name a trace=<hash> or a workload=<name>")
	case traceHash != "" && wl != "":
		return j, badRequest("ambiguous_source", "trace and workload are mutually exclusive")
	case traceHash != "":
		if _, ok := store.Info(traceHash); !ok {
			return j, &apiError{status: 404, code: "trace_not_found", msg: fmt.Sprintf("no trace %s (upload it via POST /v1/traces)", traceHash)}
		}
		j.TraceHash = traceHash
	default:
		if _, ok := workload.ByName(wl); !ok {
			return j, badRequest("unknown_workload", fmt.Sprintf("unknown workload %q (GET /v1/workloads lists the suite)", wl))
		}
		j.Workload = wl
	}

	var err error
	if v := q.Get("engine"); v != "" {
		if j.Engine, err = simulate.ParseEngine(v); err != nil {
			return j, badRequest("unknown_engine", err.Error())
		}
	}
	if v := q.Get("policy"); v != "" {
		if j.Policy, err = cache.ParsePolicy(v); err != nil {
			return j, badRequest("unknown_policy", err.Error())
		}
	}
	if v := q.Get("mode"); v != "" {
		if j.Mode, err = simulate.ParseMode(v); err != nil {
			return j, badRequest("unknown_mode", err.Error())
		}
	}
	var perr *apiError
	j.Records, perr = intParam(q, "records", j.Records, 1, maxCaptureRecords)
	if perr != nil {
		return j, perr
	}
	j.Skip, perr = intParam(q, "skip", 0, 0, maxCaptureRecords)
	if perr != nil {
		return j, perr
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return j, badRequest("bad_param", fmt.Sprintf("seed %q is not a uint64", v))
		}
		j.Seed = seed
	}
	if v := q.Get("nowarm"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return j, badRequest("bad_param", fmt.Sprintf("nowarm %q is not a bool", v))
		}
		j.NoWarm = b
	}
	if v := q.Get("sample_rate"); v != "" {
		if j.SampleRate, err = strconv.ParseFloat(v, 64); err != nil {
			return j, badRequest("bad_param", fmt.Sprintf("sample_rate %q is not a number", v))
		}
		// Validate reads a zero rate as unset; a rate given must be one.
		if err := simulate.CheckSampleRate(j.SampleRate); err != nil {
			return j, specError(err)
		}
	}
	if v := q.Get("sample_size"); v != "" {
		if j.SampleSize, err = strconv.Atoi(v); err != nil {
			return j, badRequest("bad_param", fmt.Sprintf("sample_size %q is not an integer", v))
		}
	}
	if err := j.simConfig(1).Validate(); err != nil {
		return j, specError(err)
	}
	// One curve, one key: reset what the engine ignores, so that a knob
	// with no effect cannot make a cached curve recompute.
	if j.Engine != simulate.EngineAnalytic {
		j.SampleRate, j.SampleSize = 0, 0 // SHARDS knobs
	}
	if j.Engine == simulate.EngineMattson || j.Engine == simulate.EngineAnalytic {
		j.NoWarm = false // single-pass profilers have no warm-up replay
	}
	if j.Engine == simulate.EngineAnalytic {
		j.Policy = defaultPolicy // its grid reads sets and ways only
	}
	return j, nil
}

// specError maps a simulate.Config rejection onto the error taxonomy:
// a clash of two knobs has its own code, anything else is a bad
// parameter, and the message names the query parameters.
func specError(err error) *apiError {
	var ce *simulate.ConfigError
	if !errors.As(err, &ce) {
		return badRequest("bad_param", err.Error())
	}
	code := "bad_param"
	switch ce.Fields {
	case simulate.FieldEngine | simulate.FieldPolicy:
		code = "engine_policy_mismatch"
	case simulate.FieldEngine | simulate.FieldMode:
		code = "engine_mode_mismatch"
	case simulate.FieldPolicy | simulate.FieldMode:
		code = "policy_mode_mismatch"
	}
	return badRequest(code, ce.Explain(paramNames))
}

// paramNames are the query parameters that set simulate.Config fields.
var paramNames = map[simulate.Field]string{
	simulate.FieldEngine: "engine", simulate.FieldPolicy: "policy", simulate.FieldMode: "mode",
	simulate.FieldSampleRate: "sample_rate", simulate.FieldSampleSize: "sample_size",
}

func intParam(q url.Values, name string, def, min, max int) (int, *apiError) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min || n > max {
		return def, badRequest("bad_param", fmt.Sprintf("%s %q is not an integer in [%d, %d]", name, v, min, max))
	}
	return n, nil
}

// ComputeFunc produces the curve for a fully-resolved job. The
// production implementation is Server.compute; tests inject counting
// or stalling stand-ins to pin down singleflight and cancellation
// behaviour without replaying real traces.
type ComputeFunc func(ctx context.Context, spec JobSpec) (*analysis.Curve, error)

// computeDirect is the production ComputeFunc: resolve the job's
// block source (stored trace, or capture-and-store for workload
// specs) and run the requested engine under the job context. A fused
// curve reuses the points of the same trace under another policy that
// hold for its own (sweepFused).
func (s *Server) computeDirect(ctx context.Context, spec JobSpec) (*analysis.Curve, error) {
	hash := spec.TraceHash
	if spec.Workload != "" {
		info, err := s.captureWorkload(ctx, spec)
		if err != nil {
			return nil, err
		}
		hash = info.Hash
	}
	open := func() (trace.BlockSource, error) { return s.store.Open(hash) }
	cfg := spec.simConfig(s.sweepWorkers)
	if spec.Engine == simulate.EngineFused {
		return s.sweepFused(ctx, spec.pointsKey(hash), cfg, open)
	}
	return simulate.SweepStreamContext(ctx, cfg, open)
}

// captureWorkload captures the spec's synthetic workload, encodes it
// as a v2 stream and content-addresses it into the store, so repeated
// and derived requests (same workload, different engine) replay one
// stored object. The capture itself is deterministic in (name, seed,
// skip, records), so the object is stable across servers too.
func (s *Server) captureWorkload(ctx context.Context, spec JobSpec) (TraceInfo, error) {
	if err := ctx.Err(); err != nil {
		return TraceInfo{}, err
	}
	ws := workload.MustByName(spec.Workload)
	tr := simulate.CaptureTrace(ws.New, spec.Seed, spec.Skip, spec.Records)
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(tr.WriteV2(pw))
	}()
	info, err := s.store.Put(pr)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("server: storing captured workload: %w", err)
	}
	return info, nil
}
