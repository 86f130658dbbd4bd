package simulate

import (
	"fmt"
	"strings"

	"cachepirate/internal/cache"
	"cachepirate/internal/machine"
)

// maxSampleSize bounds Config.SampleSize: a fixed-size SHARDS sample
// tracks at most 2^30 lines.
const maxSampleSize = 1 << 30

// Field names a Config field that Validate can reject. A ConfigError
// blames a set of them, so the constants are bits.
type Field uint8

const (
	FieldEngine Field = 1 << iota
	FieldPolicy       // Machine.L3.Policy
	FieldMode
	FieldSampleRate
	FieldSampleSize
	FieldSizes
)

// fieldNames are the fields' names in Config.
var fieldNames = map[Field]string{
	FieldEngine: "Engine", FieldPolicy: "Machine.L3.Policy", FieldMode: "Mode",
	FieldSampleRate: "SampleRate", FieldSampleSize: "SampleSize", FieldSizes: "Sizes",
}

// ConfigError is Validate's verdict on a Config it rejects: the field
// or fields at fault, and why.
type ConfigError struct {
	// Fields is the set of fields at fault: one, or two whose values do
	// not go together (Engine and Mode, say).
	Fields Field
	// Reason says what is wrong, phrased to follow the field names:
	// "must be in (0, 1], got 2".
	Reason string
}

func (e *ConfigError) Error() string { return "simulate: " + e.Explain(nil) }

// Explain renders the error under a front door's names for the
// fields, a flag or a query parameter: "-sample-rate must be in
// (0, 1], got 2". A field the door does not name keeps its Config
// name.
func (e *ConfigError) Explain(names map[Field]string) string {
	var blamed []string
	for f := FieldEngine; f <= FieldSizes; f <<= 1 {
		if e.Fields&f == 0 {
			continue
		}
		name, ok := names[f]
		if !ok {
			name = fieldNames[f]
		}
		blamed = append(blamed, name)
	}
	return strings.Join(blamed, " and ") + " " + e.Reason
}

// CheckSampleRate is Validate's rule for a SampleRate that is set: a
// rate in (0, 1]. Validate reads 0 as unset, so a front door that
// takes the rate from its user applies this to the value given.
func CheckSampleRate(rate float64) error {
	if rate > 0 && rate <= 1 { // NaN fails both
		return nil
	}
	return &ConfigError{FieldSampleRate, fmt.Sprintf("must be in (0, 1], got %g", rate)}
}

// Validate is the one rule for which sweeps can run, and every front
// door (cachesim, curved, the library's entry points) applies it
// before any work. On the machine and size grid the defaults give, it
// checks the engine, mode and L3 policy together, the SHARDS knobs,
// and every size; a rejection is a *ConfigError. The analytic engine
// reads only the sets and ways of its grid, so its L3 policy is not
// checked. Validate allocates only to reject: the curve server runs it
// on every request.
func (c Config) Validate() error {
	mcfg := c.replayMachine()
	if c.Engine < EngineFused || c.Engine > EngineAnalytic {
		return &ConfigError{FieldEngine, fmt.Sprintf("is unknown: %v", c.Engine)}
	}
	if c.Mode != ByWays && c.Mode != BySets {
		return &ConfigError{FieldMode, fmt.Sprintf("is unknown: %v", c.Mode)}
	}
	switch c.Engine {
	case EngineMattson:
		if mcfg.L3.Policy != cache.LRU {
			return &ConfigError{FieldEngine | FieldPolicy, fmt.Sprintf("do not match: mattson needs lru (stack inclusion), have %v", mcfg.L3.Policy)}
		}
		if c.Mode != ByWays {
			return &ConfigError{FieldEngine | FieldMode, "do not match: mattson sweeps by ways only"}
		}
	case EngineAnalytic:
		mcfg.L3.Policy = cache.LRU // any way count will do
	}
	if c.SampleRate != 0 {
		if err := CheckSampleRate(c.SampleRate); err != nil {
			return err
		}
	}
	if c.SampleSize < 0 || c.SampleSize > maxSampleSize {
		return &ConfigError{FieldSampleSize, fmt.Sprintf("must be in [0, %d], got %d", maxSampleSize, c.SampleSize)}
	}
	var grid [64]int64 // the default grid, kept off the heap
	sizes := c.Sizes
	if len(sizes) == 0 {
		sizes = waySizes(grid[:0], mcfg.L3)
	}
	for i, size := range sizes {
		if err := checkSize(&mcfg, c.Mode, size, i == 0); err != nil {
			return err
		}
	}
	return nil
}

// checkSize is Validate's rule for one size of the grid: the sweep
// mode can shrink the L3 of mcfg to it, and a machine can be built at
// it. Sizes differ only in the L3, so the rest of the machine is
// checked only when first is set.
func checkSize(mcfg *machine.Config, mode SweepMode, size int64, first bool) error {
	if mode == ByWays {
		way := mcfg.L3.Size / int64(mcfg.L3.Ways)
		if size%way != 0 {
			return &ConfigError{FieldSizes, fmt.Sprintf("include %d, not a whole number of ways (way = %d bytes)", size, way)}
		}
		if ways := size / way; mcfg.L3.Policy == cache.PseudoLRU && ways > 0 && ways&(ways-1) != 0 {
			return &ConfigError{FieldPolicy | FieldMode, fmt.Sprintf("do not match: a sweep by ways visits %d ways at %d bytes, and the pseudo-LRU tree needs a power of two", ways, size)}
		}
	}
	m := shrink(*mcfg, mode, size)
	var err error
	if first {
		err = m.Validate()
	} else {
		m.L3.Owners = 1 // as the machine's hierarchy checks it
		err = m.L3.Validate()
	}
	if err != nil {
		return &ConfigError{FieldSizes, fmt.Sprintf("include %d: %v", size, err)}
	}
	return nil
}
