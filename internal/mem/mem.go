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

// Server is a shared bandwidth resource.
type Server struct {
	cfg      ServerConfig
	nextFree float64

	// Service time of the most recent request size. Nearly every
	// request is one cache line, so the divide runs once per run of
	// equal sizes, not once per request; the cached quotient is the
	// same IEEE division of the same operands, so schedules stay
	// bit-identical.
	lastSize    int64
	lastService float64

	// cumulative statistics
	bytes    int64
	requests int64
	queueCyc float64
	busyCyc  float64
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

// NewServer builds a bandwidth server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg}, nil
}

// MustNewServer is NewServer but panics on error.
func MustNewServer(cfg ServerConfig) *Server {
	s, err := NewServer(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the server's configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

// Request schedules a transfer of size bytes arriving at cycle now and
// returns the cycle at which the data is available. Completion =
// max(now, nextFree) + size/capacity + baseLatency.
func (s *Server) Request(now float64, size int64) (done float64) {
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	if size != s.lastSize {
		s.lastSize = size
		s.lastService = float64(size) / s.cfg.BytesPerCycle
	}
	service := s.lastService
	s.queueCyc += start - now
	s.busyCyc += service
	s.nextFree = start + service
	s.bytes += size
	s.requests++
	return s.nextFree + s.cfg.BaseLatency
}

// Delay is Request expressed as a latency: the number of cycles between
// arrival and completion.
func (s *Server) Delay(now float64, size int64) float64 {
	return s.Request(now, size) - now
}

// NextFree returns the cycle at which the server becomes idle.
func (s *Server) NextFree() float64 { return s.nextFree }

// Stats returns cumulative transfer statistics.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Bytes:       s.bytes,
		Requests:    s.requests,
		QueueCycles: s.queueCyc,
		BusyCycles:  s.busyCyc,
	}
}

// ResetStats zeroes the statistics but keeps the schedule cursor.
func (s *Server) ResetStats() {
	s.bytes, s.requests, s.queueCyc, s.busyCyc = 0, 0, 0, 0
}

// Reset clears both statistics and the schedule cursor.
func (s *Server) Reset() {
	s.ResetStats()
	s.nextFree = 0
}

// ServerStats summarises a server's cumulative traffic.
type ServerStats struct {
	Bytes       int64
	Requests    int64
	QueueCycles float64
	BusyCycles  float64
}

// Utilization returns the fraction of the window [0, now] the server
// spent busy.
func (st ServerStats) Utilization(now float64) float64 {
	if now <= 0 {
		return 0
	}
	u := st.BusyCycles / now
	if u > 1 {
		u = 1
	}
	return u
}

// GBPerSec converts the server's traffic over elapsed cycles at the
// given core frequency (Hz) into GB/s (decimal GB, as the paper uses).
func (st ServerStats) GBPerSec(elapsedCycles, freqHz float64) float64 {
	if elapsedCycles <= 0 {
		return 0
	}
	bytesPerCycle := float64(st.Bytes) / elapsedCycles
	return bytesPerCycle * freqHz / 1e9
}
