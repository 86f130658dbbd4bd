package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cachepirate/internal/analysis"
	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
	"cachepirate/internal/server"
	"cachepirate/internal/simulate"
)

// TestMain lets the test binary double as the cachesim CLI: when the
// marker variable is set, the process runs main() instead of the test
// suite, so tests can exec real cachesim invocations without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("CACHESIM_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// command returns a child that runs this test binary as the CLI. It is
// killed when the test's -timeout deadline passes or the test ends, so
// a hung invocation cannot outlive the test binary.
func command(t *testing.T, args ...string) *exec.Cmd {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if d, ok := t.Deadline(); ok {
		ctx, cancel = context.WithDeadline(ctx, d)
		t.Cleanup(cancel)
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CACHESIM_UNDER_TEST=1")
	return cmd
}

// run runs one CLI invocation in a subprocess and returns its stdout,
// its stderr and its exit error.
func run(t *testing.T, args ...string) (string, string, error) {
	cmd := command(t, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// cachesim runs one CLI invocation and returns its stdout, failing the
// test on a non-zero exit.
func cachesim(t *testing.T, args ...string) string {
	t.Helper()
	out, errOut, err := run(t, args...)
	if err != nil {
		t.Fatalf("cachesim %s: %v\n%s", strings.Join(args, " "), err, errOut)
	}
	return out
}

// wantUsageExit fails the test unless err is exit code 2 with stderr
// containing msg.
func wantUsageExit(t *testing.T, err error, stderr, msg string) {
	t.Helper()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr, msg) {
		t.Errorf("got %v, want exit 2 naming %q\n%s", err, msg, stderr)
	}
}

// TestRejectsBadCounts pins that a capture cachesim cannot make — no
// records, or a negative skip — is a usage error before any capture,
// not a panic.
func TestRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct{ name, flag, value string }{
		{"records=-1", "-records", "-1"},
		{"records=0", "-records", "0"},
		{"skip=-1", "-skip", "-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, err := run(t, tc.flag, tc.value, "microrand")
			wantUsageExit(t, err, errOut, "-records must be at least 1")
		})
	}
}

// TestRejectsBadSampling pins that a SHARDS knob outside the curve
// server's domain is a usage error before any capture: a zero rate
// used to run the exact rate 1.0, and the others failed only after the
// capture.
func TestRejectsBadSampling(t *testing.T) {
	for _, tc := range []struct{ flag, value, msg string }{
		{"-sample-rate", "0", "-sample-rate must be in (0, 1]"},
		{"-sample-rate", "2", "-sample-rate must be in (0, 1]"},
		{"-sample-rate", "NaN", "-sample-rate must be in (0, 1]"},
		{"-sample-rate", "-1", "-sample-rate must be in (0, 1]"},
		{"-sample-size", "-5", "-sample-size must be in [0, "},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			_, errOut, err := run(t, "-engine", "analytic", tc.flag, tc.value, "microrand")
			wantUsageExit(t, err, errOut, tc.msg)
		})
	}
}

// TestEmptySampleFails pins that an analytic estimate with no sampled
// access is an error: 60 records at the default rate 0.01 sample none,
// which used to print 0.00% misses at every size with a zero error bar.
func TestEmptySampleFails(t *testing.T) {
	out, errOut, err := run(t, "-records", "60", "-engine", "analytic", "-policy", "lru", "-csv", "microrand")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(errOut, "no access of the 60 records passed the SHARDS filter at sample rate 0.01") {
		t.Errorf("got %v, want exit 1 naming the records and the rate\n%s", err, errOut)
	}
	if out != "" {
		t.Errorf("printed a curve:\n%s", out)
	}
}

// TestLoadSaveRejected pins that -save works on captures only: with
// -load it exits 2, names the re-encode command and writes nothing.
func TestLoadSaveRejected(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.cptr2")
	cachesim(t, "-records", "500", "-j", "1", "-save", src, "microrand")
	dst := filepath.Join(dir, "dst.cptr2")
	_, errOut, err := run(t, "-load", src, "-save", dst)
	wantUsageExit(t, err, errOut, "tracer compact")
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Errorf("-load -save left an output file (stat: %v)", err)
	}
}

// TestLoadMatchesCapture pins the out-of-core path against the
// in-memory one at the CLI: every engine prints the same CSV over a
// capture and over -load of the file -save wrote from it.
func TestLoadMatchesCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.cptr2")
	cachesim(t, "-records", "3000", "-j", "1", "-save", path, "microrand")
	for _, engine := range []string{"fused", "persize", "mattson", "analytic"} {
		t.Run(engine, func(t *testing.T) {
			flags := []string{"-engine", engine, "-policy", "lru", "-j", "2", "-csv"}
			mem := cachesim(t, append(flags, "-records", "3000", "microrand")...)
			streamed := cachesim(t, append(flags, "-load", path)...)
			if mem == "" || streamed != mem {
				t.Errorf("-load CSV differs from the capture's:\n%s\nvs\n%s", streamed, mem)
			}
		})
	}
}

// TestLoadStack pins that -stack, the one consumer that needs a -load
// file's records in memory, still prints the stack-distance curve.
func TestLoadStack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.cptr2")
	cachesim(t, "-records", "2000", "-j", "1", "-save", path, "microrand")
	out := cachesim(t, "-load", path, "-stack", "-j", "1", "-csv")
	mem := cachesim(t, "-records", "2000", "-stack", "-j", "1", "-csv", "microrand")
	if out != mem {
		t.Errorf("-load -stack output differs from the capture's:\n%s\nvs\n%s", out, mem)
	}
}

// TestLoadRejectsV1 pins that a file in the retired v1 format fails
// -load with an error exit, never a panic, whether the engine streams
// it or -stack reads it into memory.
func TestLoadRejectsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.cptr1")
	if err := os.WriteFile(path, []byte("CPTR1\n\x01\x02\x02\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"stream", nil},
		{"stack", []string{"-stack"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, errOut, err := run(t, append(tc.flags, "-j", "1", "-load", path)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || strings.Contains(errOut, "panic") {
				t.Errorf("-load of a v1 file: %v\n%s", err, errOut)
			}
		})
	}
}

// doorRows is the three-door verdict table: each row is one sweep spec,
// as curve-server query parameters, and the verdict every front door
// must reach on it: "" to accept, or the curve server's error code. It
// holds every curve-knob row of the server's TestHandlerErrorTable and
// every row of TestRejectsBadSampling above.
var doorRows = []struct{ name, query, want string }{
	{"unknown engine", "engine=quantum", "unknown_engine"},
	{"unknown policy", "policy=fifo", "unknown_policy"},
	{"unknown mode", "mode=diag", "unknown_mode"},
	{"mattson without lru", "engine=mattson", "engine_policy_mismatch"},
	{"mattson with nehalem", "engine=mattson&policy=nehalem", "engine_policy_mismatch"},
	{"mattson by sets", "engine=mattson&policy=lru&mode=sets", "engine_mode_mismatch"},
	{"plru by ways", "policy=plru", "policy_mode_mismatch"},
	{"fused plru by ways", "engine=fused&policy=plru&mode=ways", "policy_mode_mismatch"},
	{"persize plru by ways", "engine=persize&policy=plru", "policy_mode_mismatch"},
	{"analytic plru by ways", "engine=analytic&policy=plru", ""},
	{"plru by sets", "policy=plru&mode=sets", ""},
	{"persize plru by sets", "engine=persize&policy=plru&mode=sets", ""},
	{"fused by sets", "mode=sets", ""},
	{"sample_rate 1.5", "engine=analytic&sample_rate=1.5", "bad_param"},
	{"sample_rate NaN", "engine=analytic&sample_rate=NaN", "bad_param"},
	{"sample_rate nan", "engine=analytic&sample_rate=nan", "bad_param"},
	{"sample_rate 0", "engine=analytic&sample_rate=0", "bad_param"},
	{"sample_rate 2", "engine=analytic&sample_rate=2", "bad_param"},
	{"sample_rate -1", "engine=analytic&sample_rate=-1", "bad_param"},
	{"fused sample_rate 0", "sample_rate=0", "bad_param"},
	{"sample_size -5", "engine=analytic&sample_size=-5", "bad_param"},
	{"sample_size 2^30+1", "engine=analytic&sample_size=1073741825", "bad_param"},
	{"bad nowarm", "nowarm=maybe", "bad_param"},
	{"fused", "", ""},
	{"persize nowarm", "engine=persize&nowarm=true", ""},
	{"mattson", "engine=mattson&policy=lru", ""},
	{"analytic sample_rate 0.5", "engine=analytic&sample_rate=0.5", ""},
	{"analytic sample_size 64", "engine=analytic&sample_size=64", ""},
}

// mismatchCodes are the curve server's codes for two knobs that do
// not go together.
var mismatchCodes = map[simulate.Field]string{
	simulate.FieldEngine | simulate.FieldPolicy: "engine_policy_mismatch",
	simulate.FieldEngine | simulate.FieldMode:   "engine_mode_mismatch",
	simulate.FieldPolicy | simulate.FieldMode:   "policy_mode_mismatch",
}

// libraryVerdict is the library's verdict on a spec: the knobs parsed
// by the simulate and cache parsers into the curve server's sweep
// config, then simulate.Config.Validate. A Config reads SampleRate 0
// as unset, so a rate given is checked with simulate.CheckSampleRate
// too, as every front door does. It returns the verdict as a curve
// server code, and the rejection when Validate's rule made it.
func libraryVerdict(q url.Values) (string, *simulate.ConfigError) {
	cfg := simulate.Config{Machine: machine.NehalemConfigNoPrefetch()}
	var err error
	if v := q.Get("engine"); v != "" {
		if cfg.Engine, err = simulate.ParseEngine(v); err != nil {
			return "unknown_engine", nil
		}
	}
	if v := q.Get("policy"); v != "" {
		if cfg.Machine.L3.Policy, err = cache.ParsePolicy(v); err != nil {
			return "unknown_policy", nil
		}
	}
	if v := q.Get("mode"); v != "" {
		if cfg.Mode, err = simulate.ParseMode(v); err != nil {
			return "unknown_mode", nil
		}
	}
	if v := q.Get("nowarm"); v != "" {
		cold, err := strconv.ParseBool(v)
		if err != nil {
			return "bad_param", nil
		}
		if cold {
			cfg.WarmPasses = -1
		}
	}
	if v := q.Get("sample_size"); v != "" {
		if cfg.SampleSize, err = strconv.Atoi(v); err != nil {
			return "bad_param", nil
		}
	}
	if v := q.Get("sample_rate"); v != "" {
		if cfg.SampleRate, err = strconv.ParseFloat(v, 64); err != nil {
			return "bad_param", nil
		}
		err = simulate.CheckSampleRate(cfg.SampleRate)
	}
	if err == nil {
		err = cfg.Validate()
	}
	var ce *simulate.ConfigError
	if !errors.As(err, &ce) {
		return "", nil
	}
	if code, ok := mismatchCodes[ce.Fields]; ok {
		return code, ce
	}
	return "bad_param", ce
}

// TestThreeDoorVerdicts runs every doorRows spec through the library,
// the curved handler and the cachesim CLI, and requires the same
// verdict from each. A rejection by Validate's rule reads the same at
// the CLI, under the flags' names. An accepted spec is swept by the
// handler and the CLI over the same 3000-record microrand capture, and
// the served JSON curve, rendered as cachesim renders its curve, must
// be byte-equal to cachesim's CSV.
func TestThreeDoorVerdicts(t *testing.T) {
	store, err := server.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range doorRows {
		t.Run(row.name, func(t *testing.T) {
			q, err := url.ParseQuery(row.query)
			if err != nil {
				t.Fatal(err)
			}
			lib, ce := libraryVerdict(q)
			if lib != row.want {
				t.Errorf("library verdict %q, want %q", lib, row.want)
			}

			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/curves?workload=microrand&records=3000&"+row.query, nil))
			var served string
			if rec.Code != 200 {
				var body struct {
					Error struct{ Code string } `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != 400 {
					t.Fatalf("curved: status %d, body %q", rec.Code, rec.Body.String())
				}
				served = body.Error.Code
			}
			if served != row.want {
				t.Errorf("curved verdict %q, want %q (%s)", served, row.want, rec.Body.String())
			}

			keys := make([]string, 0, len(q))
			for k := range q {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			args := []string{"-records", "3000", "-j", "1", "-csv"}
			for _, k := range keys {
				args = append(args, "-"+strings.ReplaceAll(k, "_", "-")+"="+q.Get(k))
			}
			out, errOut, err := run(t, append(args, "microrand")...)
			if row.want != "" {
				msg := ""
				if ce != nil {
					msg = ce.Explain(flagNames)
				}
				wantUsageExit(t, err, errOut, msg)
				return
			}
			if err != nil {
				t.Fatalf("cachesim %s: %v\n%s", strings.Join(args, " "), err, errOut)
			}
			if q.Get("engine") == "analytic" && !q.Has("sample_rate") && !q.Has("sample_size") {
				// The doors' defaults differ here: curved's rate is
				// exact, cachesim's 0.01.
				out = cachesim(t, append(args, "-sample-rate=1", "microrand")...)
			}
			curve, err := analysis.ReadCurveJSON(rec.Body)
			if err != nil {
				t.Fatal(err)
			}
			if csv := report.CurveTable("", curve).CSV(); csv != out {
				t.Errorf("curved's curve differs from cachesim's:\n%s\nvs\n%s", csv, out)
			}
		})
	}
}
