// Package server is the profiling-as-a-service layer: a stdlib-only
// HTTP server that accepts trace uploads and workload specs and serves
// CPI/miss-ratio/bandwidth curves computed by the engines in
// internal/simulate. The paper produces one curve per workload on one
// researcher's machine; this package is the ROADMAP's "serve those
// curves to millions of users" step — content-addressed trace storage,
// a sharded byte-budget LRU result cache, singleflight dedup of
// identical in-flight jobs, and a bounded job queue (runner.Queue)
// with per-job deadlines that propagate into the replay loops.
//
// See DESIGN.md §14 for the architecture and the error taxonomy.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cachepirate/internal/trace"
)

// TraceInfo describes one stored trace.
type TraceInfo struct {
	// Hash is the hex SHA-256 of the stored bytes — the trace's
	// content address. v1 and v2 encodings of the same records are
	// distinct objects (different bytes, different hashes).
	Hash string `json:"hash"`
	// Bytes is the encoded size on disk.
	Bytes int64 `json:"bytes"`
	// Records and Instructions are the decoded totals, verified
	// against the format's own header/checksums at upload time.
	Records      int64 `json:"records"`
	Instructions int64 `json:"instructions"`
}

// Store is a content-addressed trace store: uploads stream through a
// hasher onto disk, are validated by a full decode pass (header
// cross-checks and v2 frame checksums included), and land at
// <dir>/<sha256>.trace. Identical uploads dedupe to one object.
type Store struct {
	dir string

	mu     sync.RWMutex
	traces map[string]TraceInfo
}

// NewStore opens (creating if needed) a store rooted at dir and
// indexes any traces a previous process left there.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: store dir: %w", err)
	}
	s := &Store{dir: dir, traces: make(map[string]TraceInfo)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: reading store dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".trace" {
			continue
		}
		hash := e.Name()[:len(e.Name())-len(".trace")]
		info, err := validateTraceFile(filepath.Join(dir, e.Name()))
		if err != nil {
			// A torn write from a crashed process: skip it rather than
			// refuse to start. Re-uploading replaces it.
			continue
		}
		info.Hash = hash
		s.traces[hash] = info
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Put streams r into the store: the bytes are hashed and written to a
// temp file simultaneously, validated by a full decode pass, and then
// renamed to their content address. The reader is consumed to EOF.
// Invalid traces never become visible. Re-uploading an existing trace
// is a cheap no-op that returns the existing info.
func (s *Store) Put(r io.Reader) (TraceInfo, error) {
	tmp, err := os.CreateTemp(s.dir, "upload-*.tmp")
	if err != nil {
		return TraceInfo{}, fmt.Errorf("server: temp file: %w", err)
	}
	tmpName := tmp.Name()
	// The temp file is always removed on failure; on success it has
	// been renamed away and the remove is a harmless ENOENT.
	defer os.Remove(tmpName)

	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(tmp, h), r)
	if err != nil {
		if cerr := tmp.Close(); cerr != nil {
			err = fmt.Errorf("%w (also closing temp: %v)", err, cerr)
		}
		return TraceInfo{}, err
	}
	if err := tmp.Close(); err != nil {
		return TraceInfo{}, fmt.Errorf("server: flushing upload: %w", err)
	}
	hash := hex.EncodeToString(h.Sum(nil))

	s.mu.RLock()
	existing, ok := s.traces[hash]
	s.mu.RUnlock()
	if ok {
		return existing, nil
	}

	info, err := validateTraceFile(tmpName)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("server: invalid trace: %w", err)
	}
	info.Hash = hash
	info.Bytes = n

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.traces[hash]; ok {
		return existing, nil
	}
	if err := os.Rename(tmpName, s.path(hash)); err != nil {
		return TraceInfo{}, fmt.Errorf("server: committing trace: %w", err)
	}
	s.traces[hash] = info
	return info, nil
}

// validateTraceFile fully decodes path as a v1/v2 trace stream in
// O(block) memory, returning its record and instruction totals. Any
// corruption the formats can detect (bad magic, truncated stream,
// frame checksum, header total mismatch) fails here.
func validateTraceFile(path string) (info TraceInfo, err error) {
	r, err := trace.OpenFile(path, trace.ReaderOptions{})
	if err != nil {
		return TraceInfo{}, err
	}
	defer func() {
		if cerr := r.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for {
		blk, err := r.NextBlock()
		if err != nil {
			return TraceInfo{}, err
		}
		if len(blk) == 0 {
			break
		}
		info.Records += int64(len(blk))
		for i := range blk {
			info.Instructions += int64(blk[i].NInstr) + 1
		}
	}
	if info.Records == 0 {
		return TraceInfo{}, fmt.Errorf("trace holds no records")
	}
	if fi, err := os.Stat(path); err == nil {
		info.Bytes = fi.Size()
	}
	return info, nil
}

// Info returns the metadata of a stored trace.
func (s *Store) Info(hash string) (TraceInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.traces[hash]
	return info, ok
}

// Open opens a stored trace as a streaming block source (the caller
// closes it; simulate's closeSource does so automatically).
func (s *Store) Open(hash string) (*trace.Reader, error) {
	s.mu.RLock()
	_, ok := s.traces[hash]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown trace %s", hash)
	}
	return trace.OpenFile(s.path(hash), trace.ReaderOptions{})
}

// List returns every stored trace, sorted by hash.
func (s *Store) List() []TraceInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TraceInfo, 0, len(s.traces))
	for _, info := range s.traces {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// Len returns how many traces are stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.traces)
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".trace")
}
