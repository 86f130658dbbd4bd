//go:build ignore

// Corpus generator: writes the checked-in fuzz seed corpora under
// internal/conformance/testdata/fuzz/ and internal/trace/testdata/fuzz/
// in `go test fuzz v1` format. Regenerate after changing the stream
// codecs:
//
//	go run internal/conformance/gen_corpus.go
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"cachepirate/internal/cache"
	"cachepirate/internal/conformance"
	"cachepirate/internal/stats"
	"cachepirate/internal/trace"
)

func writeSeed(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
}

func main() {
	kdir := filepath.Join("internal", "conformance", "testdata", "fuzz", "FuzzKernel")
	hdir := filepath.Join("internal", "conformance", "testdata", "fuzz", "FuzzHierarchy")
	tdir := filepath.Join("internal", "trace", "testdata", "fuzz", "FuzzRead")

	// Kernel seeds: one generated stream per policy, cycling geometry
	// and pattern so the corpus starts with coverage of every decode
	// branch, plus adversarial single-set streams.
	for i, pol := range []cache.PolicyKind{cache.LRU, cache.PseudoLRU, cache.Nehalem, cache.Random} {
		pat := conformance.Patterns()[i%len(conformance.Patterns())]
		cfg, _ := conformance.DecodeKernel([]byte{byte(int(pol) | (i%4)<<2)})
		ops := conformance.GenOps(stats.NewRNG(uint64(100+i)), cfg, pat, 200)
		writeSeed(kdir, fmt.Sprintf("seed-%s-%s", pol, pat), conformance.EncodeKernel(cfg, ops))
	}
	{
		// Hammer + pingpong on the tiny high-pressure geometry.
		cfg, _ := conformance.DecodeKernel([]byte{byte(0 | 1<<2)})
		for _, pat := range []conformance.Pattern{conformance.PatternHammer, conformance.PatternPingPong} {
			ops := conformance.GenOps(stats.NewRNG(uint64(7+int(pat))), cfg, pat, 200)
			writeSeed(kdir, "seed-lru-tiny-"+pat.String(), conformance.EncodeKernel(cfg, ops))
		}
	}

	// Pseudo-LRU at 8, 16 and 32 ways: the last victim-table geometry
	// and the two tree-descent ones.
	for i, geom := range []int{1, 3, 4} {
		cfg, _ := conformance.DecodeKernel([]byte{byte(int(cache.PseudoLRU) | geom<<2)})
		pat := conformance.Patterns()[(i+1)%len(conformance.Patterns())]
		ops := conformance.GenOps(stats.NewRNG(uint64(300+i)), cfg, pat, 200)
		writeSeed(kdir, fmt.Sprintf("seed-plru-%dway-%s", cfg.Ways, pat), conformance.EncodeKernel(cfg, ops))
	}

	// Hierarchy seeds: one generated multicore stream per shape.
	for shape := 0; ; shape++ {
		cfg, ok := conformance.HierarchyShape(shape)
		if !ok {
			break
		}
		ops := conformance.GenHOps(stats.NewRNG(uint64(200+shape)), cfg, 200)
		writeSeed(hdir, fmt.Sprintf("seed-shape%d", shape), conformance.EncodeHierarchy(shape, ops))
	}

	// Trace seeds: a round-trippable encoded trace plus malformed
	// variants that must be rejected without panicking.
	tr := &trace.Trace{Records: []trace.Record{
		{NInstr: 3, Addr: 0x1240, Write: true},
		{Addr: 64},
		{NInstr: 1, Addr: 0x40_0000},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		log.Fatal(err)
	}
	writeSeed(tdir, "seed-valid", buf.Bytes())
	writeSeed(tdir, "seed-header-only", []byte("CPTR1\n"))
	writeSeed(tdir, "seed-overlong-varint", []byte("CPTR1\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	writeSeed(tdir, "seed-truncated", buf.Bytes()[:buf.Len()-2])
	writeSeed(tdir, "seed-v1-trailing", append(append([]byte(nil), buf.Bytes()...), 0xCC))

	// v2 seeds: a valid framed stream plus each rejection path —
	// truncated mid-frame, corrupted payload (checksum), header totals
	// disagreeing with the frames, trailing garbage past the
	// terminator, and a bare header. Mirrors fuzzSeedsV2 in
	// internal/trace/fuzz_test.go.
	var buf2 bytes.Buffer
	if err := tr.WriteV2Frames(&buf2, 2); err != nil {
		log.Fatal(err)
	}
	v2 := buf2.Bytes()
	writeSeed(tdir, "seed-v2-valid", v2)
	writeSeed(tdir, "seed-v2-frame-truncated", v2[:len(v2)-3])
	corrupt := append([]byte(nil), v2...)
	corrupt[len(corrupt)-2] ^= 0x40
	writeSeed(tdir, "seed-v2-corrupt-checksum", corrupt)
	mismatch := append([]byte(nil), v2...)
	n := binary.LittleEndian.Uint64(mismatch[6:14])
	binary.LittleEndian.PutUint64(mismatch[6:14], n+1)
	writeSeed(tdir, "seed-v2-count-mismatch", mismatch)
	writeSeed(tdir, "seed-v2-trailing", append(append([]byte(nil), v2...), 0xCC))
	writeSeed(tdir, "seed-v2-header-only", []byte("CPTR2\n"))
}
