// Package mem models the shared bandwidth resources of the simulated
// machine: the DRAM controller (off-chip bandwidth, the paper's
// 10.4 GB/s) and the shared L3 port (the 68 GB/s the multithreaded
// Pirate can saturate, §II-C2 / §III-C).
//
// Both are modelled as work-conserving servers with a fixed bytes/cycle
// capacity and a "next free" cursor: a request arriving at cycle t
// occupies the server for size/capacity cycles starting at
// max(t, nextFree), plus a fixed base latency. Queueing delay — the
// difference between the unloaded and loaded completion time — is the
// emergent contention penalty that makes co-runners slow each other
// down, which is exactly the effect Cache Pirating measures.
package mem

import "fmt"

// Server is a shared bandwidth resource, held by value: its next-free
// cursor and the constants of its configuration.
type Server struct {
	nextFree float64

	// Service time of one line, lineBytes/BytesPerCycle. Nearly every
	// request is one line, so the division runs once here instead of
	// per request; the stored quotient is the same IEEE division of the
	// same operands, so schedules stay bit-identical.
	line      float64
	lineBytes int64
	bpc       float64
	latency   float64
}

// ServerConfig describes a bandwidth server.
type ServerConfig struct {
	Name          string
	BytesPerCycle float64 // service capacity
	BaseLatency   float64 // unloaded latency in cycles, added after service
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("mem %s: BytesPerCycle must be positive, got %g", c.Name, c.BytesPerCycle)
	}
	if c.BaseLatency < 0 {
		return fmt.Errorf("mem %s: negative BaseLatency %g", c.Name, c.BaseLatency)
	}
	return nil
}

// Server returns an idle server for c, whose requests are mostly one
// line of lineBytes. c must be valid.
func (c ServerConfig) Server(lineBytes int64) Server {
	return Server{
		line:      float64(lineBytes) / c.BytesPerCycle,
		lineBytes: lineBytes,
		bpc:       c.BytesPerCycle,
		latency:   c.BaseLatency,
	}
}

// Request schedules a transfer of size bytes arriving at cycle now and
// returns the cycle at which the data is available. Completion =
// max(now, nextFree) + size/capacity + baseLatency.
func (s *Server) Request(now float64, size int64) (done float64) {
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	service := s.line
	if size != s.lineBytes {
		service = float64(size) / s.bpc
	}
	s.nextFree = start + service
	return s.nextFree + s.latency
}

// Backlog returns how long a request arriving at cycle now waits
// before its service starts.
func (s *Server) Backlog(now float64) float64 {
	if s.nextFree > now {
		return s.nextFree - now
	}
	return 0
}
