package server

import (
	"context"
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

// Engine names the server accepts. "fused" and "persize" are the
// bit-identical full-machine replay engines; "mattson" is the exact
// single-pass LRU stack curve of the bare L3; "analytic" is the
// SHARDS-sampled Che/threshold estimate. The names map onto
// internal/simulate's engines — the server adds no maths of its own.
const (
	EngineFused    = "fused"
	EnginePerSize  = "persize"
	EngineMattson  = "mattson"
	EngineAnalytic = "analytic"
)

// maxCaptureRecords bounds server-side workload captures; bigger
// workloads should be traced offline (cmd/tracer) and uploaded.
const maxCaptureRecords = 8_000_000

// JobSpec is one curve request, fully resolved and validated: either
// a stored trace (TraceHash) or a server-side workload capture
// (Workload/Records/Seed/Skip), plus the engine and model knobs. Its
// Key is the result-cache and singleflight identity, so every field
// that can change the curve must be part of it.
type JobSpec struct {
	TraceHash string
	Workload  string
	Records   int
	Seed      uint64
	Skip      int

	Engine     string
	Policy     cache.PolicyKind
	PolicyName string
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
		src, j.Engine, j.PolicyName, j.Mode, j.NoWarm, j.SampleRate, j.SampleSize)
}

// simConfig maps the spec onto a sweep config. workers is the
// server's per-job sweep width (Config.SweepWorkers): 1 keeps a curve
// job to one queue slot, so server-level parallelism comes from
// running many jobs; wider replays that many replica groups at once
// for latency, with a bit-identical curve either way. It is
// deliberately NOT part of JobSpec.Key — parallelism never changes the
// result, so cached curves stay valid across width changes.
func (j JobSpec) simConfig(workers int) simulate.Config {
	eng := simulate.EngineFused
	switch j.Engine {
	case EnginePerSize:
		eng = simulate.EnginePerSize
	case EngineAnalytic:
		eng = simulate.EngineAnalytic
	}
	return simulate.Config{
		Machine:    machine.WithL3Policy(machine.NehalemConfigNoPrefetch(), j.Policy),
		Mode:       j.Mode,
		Engine:     eng,
		NoWarm:     j.NoWarm,
		SampleRate: j.SampleRate,
		SampleSize: j.SampleSize,
		Workers:    workers,
	}
}

// parseJobSpec validates the curve-request query parameters against
// the store. Violations return an *apiError carrying the documented
// status code and machine-readable error code.
func parseJobSpec(q url.Values, store *Store) (JobSpec, *apiError) {
	j := JobSpec{
		Engine:     EngineFused,
		PolicyName: "nehalem",
		Policy:     cache.Nehalem,
		Records:    400_000,
		Seed:       1,
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

	if v := q.Get("engine"); v != "" {
		switch v {
		case EngineFused, EnginePerSize, EngineMattson, EngineAnalytic:
			j.Engine = v
		default:
			return j, badRequest("unknown_engine", fmt.Sprintf("unknown engine %q (want fused, persize, mattson or analytic)", v))
		}
	}
	if v := q.Get("policy"); v != "" {
		switch v {
		case "nehalem":
			j.Policy, j.PolicyName = cache.Nehalem, v
		case "lru":
			j.Policy, j.PolicyName = cache.LRU, v
		case "plru":
			j.Policy, j.PolicyName = cache.PseudoLRU, v
		case "random":
			j.Policy, j.PolicyName = cache.Random, v
		default:
			return j, badRequest("unknown_policy", fmt.Sprintf("unknown policy %q (want nehalem, lru, plru or random)", v))
		}
	}
	if v := q.Get("mode"); v != "" {
		switch v {
		case "ways":
			j.Mode = simulate.ByWays
		case "sets":
			j.Mode = simulate.BySets
		default:
			return j, badRequest("unknown_mode", fmt.Sprintf("unknown mode %q (want ways or sets)", v))
		}
	}
	if j.Engine == EngineMattson {
		if j.PolicyName != "lru" {
			return j, badRequest("engine_policy_mismatch", "engine=mattson requires policy=lru (stack inclusion)")
		}
		if j.Mode != simulate.ByWays {
			return j, badRequest("engine_mode_mismatch", "engine=mattson requires mode=ways")
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
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil || rate <= 0 || rate > 1 {
			return j, badRequest("bad_param", fmt.Sprintf("sample_rate %q is not in (0, 1]", v))
		}
		j.SampleRate = rate
	}
	j.SampleSize, perr = intParam(q, "sample_size", 0, 0, 1<<30)
	if perr != nil {
		return j, perr
	}
	return j, nil
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
// specs) and run the requested engine under the job context.
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
	switch spec.Engine {
	case EngineMattson:
		return simulate.MattsonLRUCurveStreamContext(ctx, cfg, open)
	case EngineAnalytic:
		return simulate.AnalyticCurveStreamContext(ctx, cfg, open)
	default:
		return simulate.SweepStreamContext(ctx, cfg, open)
	}
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
