// Command conformance drives the property-based verification layer
// from the shell: randomized check campaigns against the Reference
// oracle, and deterministic replay of fuzz corpus files with
// minimized divergence reports.
//
// Usage:
//
//	conformance check [-seed N] [-n N] [-ops N]
//	conformance replay [-target kernel|hierarchy|trace] <corpus-file>...
//
// `check` runs n randomized campaigns per policy/geometry/pattern
// combination and exits non-zero on the first divergence, printing a
// minimized report. `replay` re-runs failing inputs saved by the fuzz
// engine (testdata/fuzz/... files in `go test fuzz v1` format, or raw
// byte files) deterministically — the loop being: fuzz finds a
// crasher, `conformance replay` turns it into a minimal human-readable
// divergence report.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"

	"cachepirate/internal/cache"
	"cachepirate/internal/conformance"
	"cachepirate/internal/stats"
	"cachepirate/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "check":
		runCheck(os.Args[2:])
	case "replay":
		runReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  conformance check [-seed N] [-n N] [-ops N]
  conformance replay [-target kernel|hierarchy|trace] <corpus-file>...`)
	os.Exit(2)
}

// runCheck runs randomized kernel and hierarchy campaigns.
func runCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "base RNG seed")
	n := fs.Int("n", 4, "campaigns per policy/geometry/pattern combination")
	nops := fs.Int("ops", 50_000, "operations per campaign")
	fs.Parse(args)

	campaigns := 0
	for _, pol := range []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random} {
		for _, cfg := range conformance.KernelConfigs(pol) {
			for _, pat := range conformance.Patterns() {
				for rep := 0; rep < *n; rep++ {
					campaigns++
					rng := stats.NewRNG(*seed + uint64(campaigns))
					ops := conformance.GenOps(rng, cfg, pat, *nops)
					if d := conformance.ReplayKernel(cfg, ops); d != nil {
						fail(cfg, ops, d)
					}
				}
			}
		}
	}
	fmt.Printf("kernel: %d campaigns x %d ops clean\n", campaigns, *nops)

	hcampaigns := 0
	for shape := 0; ; shape++ {
		cfg, ok := conformance.HierarchyShape(shape)
		if !ok {
			break
		}
		for rep := 0; rep < *n; rep++ {
			hcampaigns++
			ops := conformance.GenHOps(stats.NewRNG(*seed+uint64(1000+hcampaigns)), cfg, *nops)
			if err := conformance.ReplayHierarchy(cfg, ops); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL hierarchy shape %d: %v\n", shape, err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("hierarchy: %d campaigns x %d ops clean\n", hcampaigns, *nops)
}

// fail minimizes a failing kernel stream and prints the report.
func fail(cfg cache.Config, ops []conformance.Op, d *conformance.Divergence) {
	min := conformance.Minimize(ops, func(cand []conformance.Op) bool {
		return conformance.ReplayKernel(cfg, cand) != nil
	})
	if dm := conformance.ReplayKernel(cfg, min); dm != nil {
		fmt.Fprintf(os.Stderr, "FAIL (minimized to %d of %d ops)\n%s", len(min), len(ops), dm.Report(cfg, min))
	} else {
		fmt.Fprintf(os.Stderr, "FAIL\n%s", d.Report(cfg, ops))
	}
	os.Exit(1)
}

// runReplay re-runs fuzz corpus files deterministically.
func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	target := fs.String("target", "kernel", "which decoder to replay: kernel, hierarchy or trace")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	failed := 0
	for _, path := range fs.Args() {
		data, err := loadCorpus(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(2)
		}
		if !replayOne(*target, path, data) {
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// replayOne replays one decoded input; returns whether it passed.
func replayOne(target, path string, data []byte) bool {
	switch target {
	case "kernel":
		cfg, ops := conformance.DecodeKernel(data)
		d := conformance.ReplayKernel(cfg, ops)
		if d == nil {
			fmt.Printf("%s: ok (%s/%s, %d ops)\n", path, cfg.Policy, cfg.Name, len(ops))
			return true
		}
		min := conformance.Minimize(ops, func(cand []conformance.Op) bool {
			return conformance.ReplayKernel(cfg, cand) != nil
		})
		if dm := conformance.ReplayKernel(cfg, min); dm != nil {
			fmt.Printf("%s: FAIL (minimized %d -> %d ops)\n%s", path, len(ops), len(min), dm.Report(cfg, min))
		} else {
			fmt.Printf("%s: FAIL\n%s", path, d.Report(cfg, ops))
		}
	case "hierarchy":
		cfg, ops := conformance.DecodeHierarchy(data)
		if err := conformance.ReplayHierarchy(cfg, ops); err == nil {
			fmt.Printf("%s: ok (%d cores, %d ops)\n", path, cfg.Cores, len(ops))
			return true
		} else {
			fmt.Printf("%s: FAIL: %v\n", path, err)
		}
	case "trace":
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			// A parse error is a pass for the fuzz contract (reject,
			// don't panic); report it for the record.
			fmt.Printf("%s: rejected (ok): %v\n", path, err)
			return true
		}
		var out bytes.Buffer
		if err := tr.WriteV2(&out); err != nil {
			fmt.Printf("%s: FAIL: re-encode: %v\n", path, err)
			break
		}
		tr2, err := trace.Read(&out)
		if err != nil || tr2.Len() != tr.Len() {
			fmt.Printf("%s: FAIL: round trip broken (err=%v)\n", path, err)
			break
		}
		fmt.Printf("%s: ok (%d records round-trip)\n", path, tr.Len())
		return true
	default:
		fmt.Fprintf(os.Stderr, "unknown -target %q\n", target)
		os.Exit(2)
	}
	return false
}

// loadCorpus reads a fuzz input: either a `go test fuzz v1` corpus
// file (one []byte("...") line) or raw bytes.
func loadCorpus(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header := []byte("go test fuzz v1\n")
	if !bytes.HasPrefix(raw, header) {
		return raw, nil
	}
	rest := bytes.TrimPrefix(raw, header)
	line := rest
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		line = rest[:i]
	}
	line = bytes.TrimSpace(line)
	const pre, post = "[]byte(", ")"
	if !bytes.HasPrefix(line, []byte(pre)) || !bytes.HasSuffix(line, []byte(post)) {
		return nil, fmt.Errorf("unsupported corpus entry %q", line)
	}
	s, err := strconv.Unquote(string(line[len(pre) : len(line)-len(post)]))
	if err != nil {
		return nil, fmt.Errorf("corpus entry: %w", err)
	}
	return []byte(s), nil
}
