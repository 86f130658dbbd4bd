package machine

import (
	"cachepirate/internal/cache"
	"cachepirate/internal/prefetch"
)

// Table I / §III-A constants of the paper's evaluation system, a
// quad-core Intel Nehalem E5520 at 2.27 GHz with 10.4 GB/s off-chip
// bandwidth and 68 GB/s total L3 bandwidth.
const (
	NehalemFreqHz = 2.27e9
	// NehalemDRAMBytesPerCycle is 10.4 GB/s expressed per core cycle.
	NehalemDRAMBytesPerCycle = 10.4e9 / NehalemFreqHz
	// NehalemL3PortBytesPerCycle is 68 GB/s expressed per core cycle.
	NehalemL3PortBytesPerCycle = 68e9 / NehalemFreqHz
)

// NehalemConfig returns the machine of Table I: 4 cores, 32KB/8-way
// private pseudo-LRU L1s, 256KB/8-way private pseudo-LRU L2s, an 8MB
// 16-way shared inclusive L3 with the accessed-bit Nehalem replacement
// policy, stream prefetchers, and the paper's bandwidth constants.
func NehalemConfig() Config {
	return Config{
		Cores: 4,
		CPU:   DefaultParams(),
		L1: cache.Config{
			Name: "L1", Size: 32 << 10, Ways: 8, LineSize: 64,
			Policy: cache.PseudoLRU,
		},
		L2: cache.Config{
			Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64,
			Policy: cache.PseudoLRU,
		},
		L3: cache.Config{
			Name: "L3", Size: 8 << 20, Ways: 16, LineSize: 64,
			Policy: cache.Nehalem,
		},
		DRAM: ServerConfig{
			Name:          "dram",
			BytesPerCycle: NehalemDRAMBytesPerCycle,
			BaseLatency:   160,
		},
		L3Port: ServerConfig{
			Name:          "l3port",
			BytesPerCycle: NehalemL3PortBytesPerCycle,
			BaseLatency:   0, // unloaded L3 latency lives in Params.L3Cost
		},
		NewPrefetcher: func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamConfig{Streams: 16, Degree: 8, Confirm: 2})
		},
	}
}

// NehalemConfigNoPrefetch is NehalemConfig with hardware prefetching
// disabled, for the Fig. 9 experiment and the §III-B reference
// comparison (where the authors disabled as much prefetching as they
// could).
func NehalemConfigNoPrefetch() Config {
	cfg := NehalemConfig()
	cfg.NewPrefetcher = nil
	return cfg
}

// GenericLRUConfig returns a contrasting machine in the spirit of the
// AMD parts contemporary with the paper's Nehalem: 4 cores at 2.5 GHz,
// larger 2-way L1s, 512KB L2s, a smaller 6MB/24-way shared L3 with
// *true* LRU replacement, and a 12.8 GB/s memory bus. Cache Pirating
// is machine-agnostic — it only needs a shared LLC and counters — so
// profiling the same workload on both machines demonstrates the
// method's portability (experiment ext3).
func GenericLRUConfig() Config {
	const freq = 2.5e9
	return Config{
		Cores: 4,
		CPU: Params{
			BaseCPI:         0.45,
			L1Cost:          0.5,
			L2Cost:          7,
			L3Cost:          28,
			PrefetchHitCost: 10,
			FreqHz:          freq,
		},
		L1: cache.Config{
			Name: "L1", Size: 64 << 10, Ways: 2, LineSize: 64,
			Policy: cache.LRU,
		},
		L2: cache.Config{
			Name: "L2", Size: 512 << 10, Ways: 16, LineSize: 64,
			Policy: cache.PseudoLRU,
		},
		L3: cache.Config{
			Name: "L3", Size: 6 << 20, Ways: 24, LineSize: 64,
			Policy: cache.LRU,
		},
		DRAM: ServerConfig{
			Name:          "dram",
			BytesPerCycle: 12.8e9 / freq,
			BaseLatency:   180,
		},
		L3Port: ServerConfig{
			Name:          "l3port",
			BytesPerCycle: 60e9 / freq,
			BaseLatency:   0,
		},
		NewPrefetcher: func() prefetch.Prefetcher {
			return prefetch.NewStream(prefetch.StreamConfig{Streams: 8, Degree: 4, Confirm: 2})
		},
	}
}

// WithL3Policy returns cfg with a different L3 replacement policy —
// used to contrast true-LRU and Nehalem reference simulations (Fig. 4).
func WithL3Policy(cfg Config, p cache.PolicyKind) Config {
	cfg.L3.Policy = p
	return cfg
}

// WithL3Size returns cfg with an L3 of the given byte size (keeping
// associativity) — for trace-driven reference sweeps over cache sizes.
// Sizes that are not a multiple of ways*linesize are rejected by
// Config.Validate when the machine is built.
func WithL3Size(cfg Config, size int64) Config {
	cfg.L3.Size = size
	return cfg
}

// WithL3Ways returns cfg with the L3 associativity reduced to ways and
// the size scaled proportionally — the "constant number of sets" way
// of shrinking a cache, which is how the Pirate's way-stealing actually
// reduces capacity (§II-A).
func WithL3Ways(cfg Config, ways int) Config {
	full := cfg.L3
	cfg.L3.Size = full.Size / int64(full.Ways) * int64(ways)
	cfg.L3.Ways = ways
	return cfg
}
