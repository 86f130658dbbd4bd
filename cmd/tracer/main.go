// Command tracer manages address-trace files for the out-of-core
// pipeline: it captures suite benchmarks straight to disk through the
// streaming encoder (O(frame) memory, no in-memory trace), inspects
// and integrity-checks existing files, and re-frames them.
//
// Usage:
//
//	tracer record  [-records N] [-skip N] [-seed N] [-frame N] -o FILE <benchmark>
//	tracer info    [-check] [-footprint] [-sample-size N] FILE
//	tracer compact [-frame N] -o FILE SRC
//
// record captures without materialising the trace: each record goes
// from the workload generator into the current frame, and the file
// header's record/instruction totals are patched on Close. info skims
// frame headers (cheap); -check re-decodes every frame and verifies
// the rolling checksum chain. -footprint runs one SHARDS-sampled
// profiling pass (internal/analytic, fixed-size mode: O(sample-size)
// memory however large the file) and reports the estimated footprint
// and working-set sizes. compact re-encodes SRC at the given frame
// size in O(frame) memory, so multi-GB traces are fine. When -o names
// SRC itself the rewrite goes through a temp file in the same
// directory and renames over the original, so an interrupted compact
// never corrupts it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cachepirate/internal/analytic"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/trace"
	"cachepirate/internal/workload"
)

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  tracer record  [-records N] [-skip N] [-seed N] [-frame N] -o FILE <benchmark>
  tracer info    [-check] [-footprint] [-sample-size N] FILE
  tracer compact [-frame N] -o FILE SRC
`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracer:", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "compact":
		compact(os.Args[2:])
	default:
		usage()
	}
}

// record captures a suite benchmark directly to a v2 file through the
// incremental writer: the trace never exists in memory, so captures
// are bounded by disk, not RAM.
func record(args []string) {
	fs := flag.NewFlagSet("tracer record", flag.ExitOnError)
	records := fs.Int("records", 400_000, "trace length in memory accesses")
	skip := fs.Int("skip", 0, "records to skip before capture (hot-code fast-forward)")
	seed := fs.Uint64("seed", 1, "workload seed")
	frame := fs.Int("frame", trace.DefaultFrameRecords, "records per v2 frame")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		usage()
	}
	if *records < 1 || *skip < 0 {
		fmt.Fprintf(os.Stderr, "tracer: -records must be at least 1 and -skip at least 0 (got %d and %d)\n", *records, *skip)
		os.Exit(2)
	}
	checkFrame(*frame)
	spec, ok := workload.ByName(fs.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "tracer: unknown benchmark %q (cmd/pirate -list names them)\n", fs.Arg(0))
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	w, err := trace.NewWriter(f, trace.WriterOptions{FrameRecords: *frame})
	if err != nil {
		fatal(err)
	}
	src := workload.TraceSource{Gen: spec.New(*seed)}
	for i := 0; i < *skip; i++ {
		src.NextRecord()
	}
	for i := 0; i < *records; i++ {
		if err := w.Append(src.NextRecord()); err != nil {
			fatal(err)
		}
	}
	// *os.File is an io.WriterAt, so Close patches the header totals
	// in place and readers get exact counts for free.
	if err := w.Close(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: captured %d records (%d instructions) from %s\n",
		*out, w.Records(), w.Instructions(), spec.Name)
}

// info prints a trace file's vitals from a frame-header skim; -check
// additionally replays every frame through the streaming decoder,
// verifying varint structure and the rolling checksum chain.
func info(args []string) {
	fs := flag.NewFlagSet("tracer info", flag.ExitOnError)
	check := fs.Bool("check", false, "fully decode and verify frame checksums")
	footprint := fs.Bool("footprint", false, "one sampled pass: estimate footprint and working-set sizes")
	sampleSize := fs.Int("sample-size", 8192, "-footprint sample cap in lines (memory bound)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	st, err := trace.Stat(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}

	fmt.Printf("%s: trace\n", path)
	fmt.Printf("  records:       %d\n", st.Records)
	if st.Instructions >= 0 {
		fmt.Printf("  instructions:  %d\n", st.Instructions)
	} else {
		fmt.Printf("  instructions:  unknown (unpatched header; run -check to count)\n")
	}
	if st.Frames > 0 {
		fmt.Printf("  frames:        %d (~%d records/frame)\n", st.Frames, st.Records/st.Frames)
	}
	if st.Bytes >= 0 {
		fmt.Printf("  bytes:         %d (%.2f bytes/record)\n", st.Bytes, st.BytesPerRecord())
	}

	if *check {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			fatal(err)
		}
		r, err := trace.NewReader(f, trace.ReaderOptions{})
		if err != nil {
			fatal(err)
		}
		var recs, instrs int64
		for {
			blk, err := r.NextBlock()
			if err != nil {
				fatal(fmt.Errorf("%s: integrity check failed: %w", path, err))
			}
			if len(blk) == 0 {
				break
			}
			recs += int64(len(blk))
			for _, rec := range blk {
				instrs += int64(rec.NInstr) + 1
			}
		}
		if err := r.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  check:         OK — %d records, %d instructions, checksums verified\n", recs, instrs)
	}

	if *footprint {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			fatal(err)
		}
		r, err := trace.NewReader(f, trace.ReaderOptions{})
		if err != nil {
			fatal(err)
		}
		prof, err := analytic.ProfileSource(r, stackdist.SampledConfig{
			MaxSampled:  *sampleSize,
			MaxDistance: 1 << 20, // 64MB of 64-byte lines before overflow
		})
		if err != nil {
			fatal(fmt.Errorf("%s: footprint pass: %w", path, err))
		}
		fmt.Printf("  footprint:     %s (~%.0f distinct lines, SHARDS rate %.4g, %d sampled)\n",
			sizeString(prof.Footprint()), prof.Hist.DistinctLines(), prof.Hist.Rate, prof.Hist.Sampled)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			ws, err := prof.WorkingSet(q)
			if err != nil {
				fmt.Printf("  working set:   P%.0f unavailable (%v)\n", q*100, err)
				break
			}
			fmt.Printf("  working set:   P%.0f %s\n", q*100, sizeString(ws))
		}
	}
}

// sizeString renders a byte count with a binary unit.
func sizeString(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", b/(1<<10))
	}
	return fmt.Sprintf("%.0fB", b)
}

// checkFrame refuses, with a usage exit, a -frame the writer would
// otherwise quietly clamp into [1, trace.MaxFrameRecords]: a frame
// size nobody asked for is not what the caller meant.
func checkFrame(frame int) {
	if frame < 1 || frame > trace.MaxFrameRecords {
		fmt.Fprintf(os.Stderr, "tracer: -frame must be between 1 and %d (got %d)\n", trace.MaxFrameRecords, frame)
		os.Exit(2)
	}
}

// compact re-encodes SRC frame by frame at the requested frame size.
func compact(args []string) {
	fs := flag.NewFlagSet("tracer compact", flag.ExitOnError)
	frame := fs.Int("frame", trace.DefaultFrameRecords, "records per frame")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		usage()
	}
	checkFrame(*frame)
	src, dst := fs.Arg(0), *out

	in, err := trace.OpenFile(src, trace.ReaderOptions{})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := in.Close(); err != nil {
			fatal(err)
		}
	}()
	f, finish, err := createOutput(src, dst)
	if err != nil {
		fatal(err)
	}
	w, err := trace.NewWriter(f, trace.WriterOptions{FrameRecords: *frame})
	if err != nil {
		fatal(err)
	}
	if err := copyBlocks(w.Append, in); err != nil {
		fatal(err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if err := finish(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: wrote %d records, %d instructions\n", dst, w.Records(), w.Instructions())
}

// createOutput opens the compact destination. When dst names the
// source file itself (an in-place rewrite), os.Create would truncate
// the trace while the reader is still draining it, so the rewrite goes
// to a temp file in dst's directory and the returned finish renames it
// over the original — atomic on POSIX, so an interrupted compact
// leaves the source intact.
func createOutput(src, dst string) (*os.File, func() error, error) {
	if sameFile(src, dst) {
		tmp, err := os.CreateTemp(filepath.Dir(dst), ".tracer-compact-*")
		if err != nil {
			return nil, nil, err
		}
		return tmp, func() error { return os.Rename(tmp.Name(), dst) }, nil
	}
	f, err := os.Create(dst)
	if err != nil {
		return nil, nil, err
	}
	return f, func() error { return nil }, nil
}

// sameFile reports whether src and dst name the same existing file.
// A dst that does not exist yet is never in-place.
func sameFile(src, dst string) bool {
	si, err := os.Stat(src)
	if err != nil {
		return false
	}
	di, err := os.Stat(dst)
	if err != nil {
		return false
	}
	return os.SameFile(si, di)
}

// copyBlocks drains src into append, block by block.
func copyBlocks(append func(trace.Record) error, src trace.BlockSource) error {
	for {
		blk, err := src.NextBlock()
		if err != nil {
			return err
		}
		if len(blk) == 0 {
			return nil
		}
		for _, rec := range blk {
			if err := append(rec); err != nil {
				return err
			}
		}
	}
}
