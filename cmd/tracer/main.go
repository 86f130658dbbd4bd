// Command tracer manages address-trace files for the out-of-core
// pipeline: it captures suite benchmarks straight to disk through the
// streaming v2 encoder (O(frame) memory, no in-memory trace), inspects
// and integrity-checks existing files, and converts between the flat
// v1 format and the framed, checksummed v2 format that cachesim
// -stream and the curve tooling replay out of core.
//
// Usage:
//
//	tracer record  [-records N] [-skip N] [-seed N] [-frame N] -o FILE <benchmark>
//	tracer info    [-check] [-footprint] [-sample-size N] FILE
//	tracer convert -to v1|v2 [-frame N] -o FILE SRC
//	tracer compact [-frame N] -o FILE SRC
//
// record captures without materialising the trace: each record goes
// from the workload generator into the current frame, and the file
// header's record/instruction totals are patched on Close. info skims
// frame headers (cheap) and reports whether a reader of the file
// decodes ahead (v2 frames do, up to three frames ahead on a second goroutine;
// v1 is one flat delta chain read inline); -check re-decodes every
// frame and verifies the rolling checksum chain. -footprint runs one
// SHARDS-sampled profiling pass (internal/analytic, fixed-size mode:
// O(sample-size) memory however large the file) and reports the
// estimated footprint and working-set sizes. convert streams SRC
// (either version) into the requested format; compact is convert -to
// v2, useful to re-frame a v2 file or upgrade a v1 capture. When -o
// names SRC itself the rewrite goes through a temp file in the same
// directory and renames over the original, so an interrupted convert
// never corrupts it. All conversion paths run in O(frame) memory, so
// multi-GB traces are fine.
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
  tracer info    [-check] [-j N] [-footprint] [-sample-size N] FILE
  tracer convert -to v1|v2 [-frame N] -o FILE SRC
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
	case "convert":
		convert(os.Args[2:], "")
	case "compact":
		convert(os.Args[2:], "v2")
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

	fmt.Printf("%s: trace v%d\n", path, st.Version)
	fmt.Printf("  records:       %d\n", st.Records)
	if st.Instructions >= 0 {
		fmt.Printf("  instructions:  %d\n", st.Instructions)
	} else if st.HeaderInstructions >= 0 {
		fmt.Printf("  instructions:  %d (from header)\n", st.HeaderInstructions)
	} else {
		fmt.Printf("  instructions:  unknown (unpatched header; run -check to count)\n")
	}
	if st.Frames > 0 {
		fmt.Printf("  frames:        %d (~%d records/frame)\n", st.Frames, st.Records/st.Frames)
	}
	if st.Bytes >= 0 {
		fmt.Printf("  bytes:         %d (%.2f bytes/record)\n", st.Bytes, st.BytesPerRecord())
	}
	// A v2 reader decodes up to three frames ahead on a second goroutine; v1
	// is one flat delta chain read inline.
	if st.Version >= 2 {
		fmt.Printf("  parallel:      yes (framed; decoded ahead on a second core)\n")
	} else {
		fmt.Printf("  parallel:      no (flat delta chain; convert -to v2 to decode ahead)\n")
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

// convert streams SRC into the requested format. forceTo pins the
// target version (compact = convert -to v2).
func convert(args []string, forceTo string) {
	fs := flag.NewFlagSet("tracer convert", flag.ExitOnError)
	to := fs.String("to", forceTo, "target format: v1 or v2")
	frame := fs.Int("frame", trace.DefaultFrameRecords, "records per v2 frame")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if forceTo != "" {
		*to = forceTo
	}
	if *out == "" || fs.NArg() != 1 || (*to != "v1" && *to != "v2") {
		usage()
	}
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

	var recs, instrs int64
	switch *to {
	case "v2":
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
		recs, instrs = int64(w.Records()), int64(w.Instructions())
	case "v1":
		// The v1 header leads with the record count, so an unpatched v2
		// source (header totals unknown) needs a counting pre-pass.
		n := in.NumRecords()
		if n < 0 {
			if n, err = countRecords(in); err != nil {
				fatal(err)
			}
			if err := in.Rewind(); err != nil {
				fatal(err)
			}
		}
		w := trace.NewV1Writer(f, n)
		if err := copyBlocks(w.Append, in); err != nil {
			fatal(err)
		}
		if err := w.Close(); err != nil {
			fatal(err)
		}
		recs, instrs = w.Records(), w.Instructions()
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if err := finish(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: wrote %s (%d records, %d instructions)\n", dst, *to, recs, instrs)
}

// createOutput opens the convert destination. When dst names the
// source file itself (an in-place upgrade), os.Create would truncate
// the trace while the reader is still draining it, so the rewrite goes
// to a temp file in dst's directory and the returned finish renames it
// over the original — atomic on POSIX, so an interrupted convert
// leaves the source intact.
func createOutput(src, dst string) (*os.File, func() error, error) {
	if sameFile(src, dst) {
		tmp, err := os.CreateTemp(filepath.Dir(dst), ".tracer-convert-*")
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

// countRecords replays src once just to count it.
func countRecords(src trace.BlockSource) (int64, error) {
	var n int64
	for {
		blk, err := src.NextBlock()
		if err != nil {
			return 0, err
		}
		if len(blk) == 0 {
			return n, nil
		}
		n += int64(len(blk))
	}
}
