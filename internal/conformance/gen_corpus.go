//go:build ignore

// Corpus generator: writes the checked-in fuzz seed corpora under
// internal/conformance/testdata/fuzz/, internal/trace/testdata/fuzz/
// and internal/stackdist/testdata/fuzz/ in `go test fuzz v1` format.
// Regenerate after changing the stream codecs:
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

	// Fused seeds: per shape, a seven-replica family by ways and one by
	// sets, under a policy and prefetch toggle that vary with the shape.
	fdir := filepath.Join("internal", "conformance", "testdata", "fuzz", "FuzzFusedHierarchy")
	for shape := 0; ; shape++ {
		cfg, ok := conformance.HierarchyShape(shape)
		if !ok {
			break
		}
		for mode, name := range []string{"ways", "sets"} {
			family := byte(mode) | 6<<1 | byte(shape%4)<<4 | byte(shape%2)<<6
			ops := conformance.GenFOps(stats.NewRNG(uint64(400+2*shape+mode)), cfg, 200)
			writeSeed(fdir, fmt.Sprintf("seed-shape%d-%s", shape, name), conformance.EncodeFused(byte(shape), family, ops))
		}
	}

	// Trace seeds, written alike for the decoder (FuzzRead) and the
	// profiler (FuzzSampledProfile): a valid framed stream plus each
	// rejection path — truncated mid-frame, corrupted payload
	// (checksum), header totals disagreeing with the frames, trailing
	// garbage past the terminator, a bare magic, two malformed payloads
	// behind valid checksums, and a stream in the retired v1 format.
	// TestCorpusHoldsSeeds pins them to fuzzSeeds in
	// internal/trace/fuzz_test.go.
	tr := &trace.Trace{Records: []trace.Record{
		{NInstr: 3, Addr: 0x1240, Write: true},
		{Addr: 64},
		{NInstr: 1, Addr: 0x40_0000},
	}}
	var buf bytes.Buffer
	if err := tr.WriteV2Frames(&buf, 2); err != nil {
		log.Fatal(err)
	}
	v2 := buf.Bytes()
	corrupt := append([]byte(nil), v2...)
	corrupt[len(corrupt)-2] ^= 0x40
	mismatch := append([]byte(nil), v2...)
	n := binary.LittleEndian.Uint64(mismatch[6:14])
	binary.LittleEndian.PutUint64(mismatch[6:14], n+1)
	overlong := append(bytes.Repeat([]byte{0xff}, 10), make([]byte, 11)...)
	seeds := []struct {
		name string
		data []byte
	}{
		{"seed-v2-valid", v2},
		{"seed-v2-frame-truncated", v2[:len(v2)-3]},
		{"seed-v2-corrupt-checksum", corrupt},
		{"seed-v2-count-mismatch", mismatch},
		{"seed-v2-trailing", append(append([]byte(nil), v2...), 0xCC)},
		{"seed-v2-header-only", []byte("CPTR2\n")},
		{"seed-v2-overlong-varint", badFrameStream(overlong)},
		{"seed-v2-offset-range", badFrameStream([]byte{2, 2, 64})},
		{"seed-v1-rejected", []byte("CPTR1\n\x03\a\x92\x01\x00\x00\x8f\x01\x00\x02\xfe\xff\a\x00")},
	}
	for _, dir := range []string{
		filepath.Join("internal", "trace", "testdata", "fuzz", "FuzzRead"),
		filepath.Join("internal", "stackdist", "testdata", "fuzz", "FuzzSampledProfile"),
	} {
		for _, seed := range seeds {
			writeSeed(dir, seed.name, seed.data)
		}
	}
}

// badFrameStream is a stream of one valid one-record frame, then a
// one-record frame carrying payload under a correctly chained checksum,
// then the terminator; the header totals are unknown.
func badFrameStream(payload []byte) []byte {
	b := []byte("CPTR2\n")
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
	good := []byte{6, 0x92, 0x01, 0} // {NInstr: 3, Addr: 0x1240}
	var chk uint64
	for _, p := range [][]byte{good, payload} {
		chk = frameChecksum(chk, p)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = binary.LittleEndian.AppendUint64(b, chk)
		b = append(b, p...)
	}
	return append(b, 0)
}

// frameChecksum is internal/trace's chained frame checksum (FNV-1a
// over little-endian 8-byte words, length mixed into the seed).
func frameChecksum(seed uint64, p []byte) uint64 {
	h := seed ^ (14695981039346656037 + uint64(len(p)))
	for ; len(p) >= 8; p = p[8:] {
		h = (h ^ binary.LittleEndian.Uint64(p)) * 1099511628211
	}
	if len(p) > 0 {
		var tail uint64
		for i := range p {
			tail |= uint64(p[i]) << (8 * uint(i))
		}
		h = (h ^ tail) * 1099511628211
	}
	return h
}
