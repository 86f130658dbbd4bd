package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateStreams = flag.Bool("update", false,
	"rewrite testdata/streams_golden.json from this run instead of checking it")

const streamsGoldenPath = "testdata/streams_golden.json"

// digestArches are the GOARCH values that must reproduce the pinned
// digests: amd64, where they were written, and 386, where math.Exp and
// math.Log are pure Go, int is 32 bits and a uint64 is 4-byte aligned.
var digestArches = map[string]bool{"amd64": true, "386": true}

// streamsGoldenOps is how many ops of each stream the digest covers.
const streamsGoldenOps = 20000

// streamsGolden is testdata/streams_golden.json: one digest per stream,
// valid on the architecture that wrote it (the Zipf tables go through
// math.Pow, whose last bit may differ elsewhere).
type streamsGolden struct {
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}

// streamDigest hashes every field of the next n ops of g, little-endian.
func streamDigest(g Generator, n int) string {
	h := sha256.New()
	var b [14]byte
	for i := 0; i < n; i++ {
		op := g.Next()
		binary.LittleEndian.PutUint32(b[0:], op.NInstr)
		binary.LittleEndian.PutUint64(b[4:], op.Addr)
		b[12], b[13] = 0, 0
		if op.Write {
			b[12] = 1
		}
		if op.NonTemporal {
			b[13] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuiteStreamsGolden pins the op stream of every suite workload at
// seeds 1 and 7, and of each seed-1 generator reset to 7 after 1000
// ops, so a generator rewrite that moves a single address fails here
// rather than as a drifted curve; so does a pinned stream the suite no
// longer produces. Regenerate only at a commit known good:
//
//	go test ./internal/workload -run SuiteStreamsGolden -update
func TestSuiteStreamsGolden(t *testing.T) {
	if !digestArches[runtime.GOARCH] && !*updateStreams {
		t.Skipf("digests are pinned on amd64 and 386, not %s", runtime.GOARCH)
	}
	var want streamsGolden
	if !*updateStreams {
		data, err := os.ReadFile(streamsGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", streamsGoldenPath, err)
		}
		if !digestArches[want.GOARCH] {
			t.Skipf("digests were written on %s", want.GOARCH)
		}
	}
	got := streamsGolden{GOARCH: runtime.GOARCH, Digests: map[string]string{}}
	var keys []string // in run order
	for _, spec := range Suite() {
		for _, seed := range []uint64{1, 7} {
			key := fmt.Sprintf("%s/seed%d", spec.Name, seed)
			keys = append(keys, key)
			got.Digests[key] = streamDigest(spec.New(seed), streamsGoldenOps)
		}
		g := spec.New(1)
		for i := 0; i < 1000; i++ {
			g.Next()
		}
		g.Reset(7)
		key := spec.Name + "/seed1-reset7"
		keys = append(keys, key)
		got.Digests[key] = streamDigest(g, streamsGoldenOps)
	}
	if *updateStreams {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(streamsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got.Digests), streamsGoldenPath)
		return
	}
	for _, key := range keys {
		g := got.Digests[key]
		if w, ok := want.Digests[key]; !ok {
			t.Errorf("%s: no pinned digest (run with -update at a commit known good)", key)
		} else if g != w {
			t.Errorf("%s: digest %s, pinned %s (op stream changed)", key, g, w)
		}
	}
	unproduced := maps.Clone(want.Digests)
	maps.DeleteFunc(unproduced, func(key, _ string) bool {
		_, ok := got.Digests[key]
		return ok
	})
	if len(unproduced) > 0 {
		t.Errorf("pinned but not produced by this run: %v", unproduced)
	}
}
