package simulate

import (
	"testing"

	"cachepirate/internal/cache"
	"cachepirate/internal/trace"
)

// TestMattsonLRUCurve pins the fast path's contract: LRU + ByWays
// only, monotone miss ratios, fetch == miss (no prefetcher in the
// bare-L3 model). The hit-for-hit equivalence against the fused
// engine's replica kernel lives in internal/stackdist.
func TestMattsonLRUCurve(t *testing.T) {
	tr := CaptureTrace(randFactory(96<<10), 1, 0, 30000)
	mcfg := smallMachine()
	mcfg.L3.Policy = cache.LRU

	c, err := Sweep(Config{Machine: mcfg, Engine: EngineMattson}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 16 {
		t.Fatalf("default way sweep should give 16 points, got %d", len(c.Points))
	}
	for i, p := range c.Points {
		if p.FetchRatio != p.MissRatio {
			t.Errorf("bare-L3 model must have fetch == miss: %+v", p)
		}
		if i > 0 && p.MissRatio > c.Points[i-1].MissRatio {
			t.Errorf("stack inclusion violated: miss ratio rises %g -> %g at %d bytes",
				c.Points[i-1].MissRatio, p.MissRatio, p.CacheBytes)
		}
	}

	if _, err := Sweep(Config{Machine: smallMachine(), Engine: EngineMattson}, tr); err == nil {
		t.Error("non-LRU policy accepted")
	}
	if _, err := Sweep(Config{Machine: mcfg, Mode: BySets, Engine: EngineMattson}, tr); err == nil {
		t.Error("BySets accepted")
	}
	if _, err := Sweep(Config{Machine: mcfg, Engine: EngineMattson}, &trace.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}
