package runner

import "sync/atomic"

// Utilization gauges for the frame decode pool (Pipe,
// trace.ParallelReader). They exist so a serving process can report
// where saturation lives — cmd/curved exposes them on /statsz. Gauges
// are monotonically balanced (every Add has a matching negative Add on
// every path, including teardown), so a quiescent process always reads
// zero.
var (
	decodeWorkers  atomic.Int64 // live decode-pool workers across all Pipes
	decodeQueued   atomic.Int64 // frames read but not yet picked up by a worker
	decodeInFlight atomic.Int64 // frames being decoded right now
)

// UtilStats is a snapshot of the pool gauges.
type UtilStats struct {
	// DecodeWorkers is how many decode-pool workers are live (across
	// every active Pipe).
	DecodeWorkers int64 `json:"decode_workers"`
	// DecodeQueued is how many frames sit between the sequential
	// reader and the decode workers: a persistently high value means
	// decode is the bottleneck, a zero value under load means the
	// reader (I/O) is.
	DecodeQueued int64 `json:"decode_queued"`
	// DecodeInFlight is how many frames are being decoded right now.
	DecodeInFlight int64 `json:"decode_in_flight"`
}

// Util returns the current pool utilization snapshot.
func Util() UtilStats {
	return UtilStats{
		DecodeWorkers:  decodeWorkers.Load(),
		DecodeQueued:   decodeQueued.Load(),
		DecodeInFlight: decodeInFlight.Load(),
	}
}
