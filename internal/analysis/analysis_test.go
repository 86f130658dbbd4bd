package analysis

import (
	"math"
	"testing"
)

// mkCurve builds a simple curve for tests: CPI falls and bandwidth
// falls as cache grows.
func mkCurve() *Curve {
	c := &Curve{Name: "test"}
	mb := int64(1 << 20)
	for i := 1; i <= 8; i++ {
		c.Points = append(c.Points, Point{
			CacheBytes:   int64(i) * mb,
			CPI:          1 + 8.0/float64(i)/8.0, // 2.0 at 1MB ... 1.125 at 8MB
			BandwidthGBs: 4 - 0.4*float64(i),     // 3.6 at 1MB ... 0.8 at 8MB
			FetchRatio:   0.2 / float64(i),
			MissRatio:    0.1 / float64(i),
			Trusted:      true,
			Samples:      1,
		})
	}
	return c
}

func TestCurveSort(t *testing.T) {
	c := &Curve{Points: []Point{{CacheBytes: 3}, {CacheBytes: 1}, {CacheBytes: 2}}}
	c.Sort()
	if c.Points[0].CacheBytes != 1 || c.Points[2].CacheBytes != 3 {
		t.Errorf("sort failed: %+v", c.Points)
	}
}

func TestCurveTrustedFilter(t *testing.T) {
	c := &Curve{Points: []Point{{Trusted: true}, {Trusted: false}, {Trusted: true}}}
	if got := len(c.Trusted()); got != 2 {
		t.Errorf("Trusted() returned %d points, want 2", got)
	}
}

func TestCurveInterpolation(t *testing.T) {
	c := mkCurve()
	mb := int64(1 << 20)
	// Exact point.
	v, err := c.CPIAt(2 * mb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.5) > 1e-12 {
		t.Errorf("CPI at 2MB = %g, want 1.5", v)
	}
	// Midpoint between 1MB (2.0) and 2MB (1.5).
	v, _ = c.CPIAt(mb + mb/2)
	if math.Abs(v-1.75) > 1e-12 {
		t.Errorf("CPI at 1.5MB = %g, want 1.75", v)
	}
	// Clamping.
	v, _ = c.CPIAt(100 * mb)
	if math.Abs(v-1.125) > 1e-12 {
		t.Errorf("CPI clamp high = %g", v)
	}
	if _, err := (&Curve{Name: "empty"}).CPIAt(mb); err == nil {
		t.Error("empty curve interpolation should fail")
	}
}

func TestPredictScalingCacheOnly(t *testing.T) {
	c := mkCurve()
	mb := int64(1 << 20)
	// 4 instances of an 8MB machine: each gets 2MB, CPI 1.5 vs 1.125
	// at full cache -> throughput 4 * 1.125/1.5 = 3.0 (the OMNeT
	// number from Fig. 1!). Bandwidth: 4 * 3.2 = 12.8 > 10.4 would
	// throttle, so use a high cap to isolate the cache effect.
	p, err := PredictScaling(c, 4, 8*mb, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.PredictedThroughput-3.0) > 1e-9 {
		t.Errorf("predicted throughput = %g, want 3.0", p.PredictedThroughput)
	}
	if p.BandwidthLimited {
		t.Error("should not be bandwidth limited with a huge cap")
	}
	if p.CachePerInstance != 2*mb {
		t.Errorf("share = %d", p.CachePerInstance)
	}
}

func TestPredictScalingBandwidthCap(t *testing.T) {
	c := mkCurve()
	mb := int64(1 << 20)
	// Each 2MB instance needs 3.2 GB/s; 4 need 12.8. With a 10.4 cap
	// the throughput scales by 10.4/12.8.
	p, err := PredictScaling(c, 4, 8*mb, 10.4)
	if err != nil {
		t.Fatal(err)
	}
	if !p.BandwidthLimited {
		t.Fatal("expected bandwidth-limited prediction")
	}
	want := 3.0 * 10.4 / 12.8
	if math.Abs(p.PredictedThroughput-want) > 1e-9 {
		t.Errorf("throttled throughput = %g, want %g", p.PredictedThroughput, want)
	}
	if math.Abs(p.RequiredBandwidthGBs-12.8) > 1e-9 {
		t.Errorf("required BW = %g, want 12.8", p.RequiredBandwidthGBs)
	}
}

func TestPredictScalingSingleInstanceIsUnity(t *testing.T) {
	p, err := PredictScaling(mkCurve(), 1, 8<<20, 10.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.PredictedThroughput-1) > 1e-9 {
		t.Errorf("single instance throughput = %g, want 1", p.PredictedThroughput)
	}
}

func TestPredictScalingErrors(t *testing.T) {
	if _, err := PredictScaling(mkCurve(), 0, 8<<20, 10); err == nil {
		t.Error("zero instances accepted")
	}
	if _, err := PredictScaling(mkCurve(), 2, 0, 10); err == nil {
		t.Error("zero L3 accepted")
	}
	if _, err := PredictScaling(&Curve{Name: "e"}, 2, 8<<20, 10); err == nil {
		t.Error("empty curve accepted")
	}
}

func TestPredictScalingSeries(t *testing.T) {
	series, err := PredictScalingSeries(mkCurve(), 4, 8<<20, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series length %d", len(series))
	}
	// Throughput grows with instances but sub-linearly.
	for i := 1; i < 4; i++ {
		if series[i].PredictedThroughput <= series[i-1].PredictedThroughput {
			t.Errorf("throughput not increasing at n=%d", i+1)
		}
		if series[i].PredictedThroughput > float64(i+1) {
			t.Errorf("super-linear scaling at n=%d: %g", i+1, series[i].PredictedThroughput)
		}
	}
}

func TestFetchRatioErrors(t *testing.T) {
	ref := mkCurve()
	meas := mkCurve()
	// Perturb measured fetch ratios by +0.01 everywhere.
	for i := range meas.Points {
		meas.Points[i].FetchRatio += 0.01
	}
	sum, err := FetchRatioErrors(meas, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.AbsMean-0.01) > 1e-9 || math.Abs(sum.AbsMax-0.01) > 1e-9 {
		t.Errorf("abs errors = %g/%g, want 0.01", sum.AbsMean, sum.AbsMax)
	}
	// Relative error at 8MB: 0.01 / 0.025 = 0.4 (the largest).
	if math.Abs(sum.RelMax-0.4) > 1e-9 {
		t.Errorf("rel max = %g, want 0.4", sum.RelMax)
	}
	if sum.Points != 8 {
		t.Errorf("points = %d, want 8", sum.Points)
	}
}

func TestErrorsSkipUntrustedPoints(t *testing.T) {
	ref := mkCurve()
	meas := mkCurve()
	// Make one point wildly wrong but untrusted: it must be ignored.
	meas.Points[0].FetchRatio = 99
	meas.Points[0].Trusted = false
	sum, err := FetchRatioErrors(meas, ref)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Points != 7 {
		t.Errorf("points = %d, want 7", sum.Points)
	}
	if sum.AbsMax > 1 {
		t.Errorf("untrusted point leaked into errors: max %g", sum.AbsMax)
	}
}

func TestErrorsNoTrustedPoints(t *testing.T) {
	c := &Curve{Name: "u", Points: []Point{{Trusted: false}}}
	if _, err := FetchRatioErrors(c, mkCurve()); err == nil {
		t.Error("expected error with no trusted points")
	}
}

func TestRelativeErrorZeroReferenceSkipped(t *testing.T) {
	// The paper's povray case: reference fetch ratio ~0 makes relative
	// error meaningless; we skip those points instead of dividing.
	ref := &Curve{Name: "z", Points: []Point{
		{CacheBytes: 1 << 20, FetchRatio: 0, Trusted: true},
		{CacheBytes: 2 << 20, FetchRatio: 0.1, Trusted: true},
	}}
	meas := &Curve{Name: "z", Points: []Point{
		{CacheBytes: 1 << 20, FetchRatio: 0.0001, Trusted: true},
		{CacheBytes: 2 << 20, FetchRatio: 0.11, Trusted: true},
	}}
	sum, err := FetchRatioErrors(meas, ref)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SkippedZero != 1 {
		t.Errorf("SkippedZero = %d, want 1", sum.SkippedZero)
	}
	if math.Abs(sum.RelMean-0.1) > 1e-9 {
		t.Errorf("rel mean = %g, want 0.1", sum.RelMean)
	}
}

func TestCPIErrors(t *testing.T) {
	ref := mkCurve()
	meas := mkCurve()
	for i := range meas.Points {
		meas.Points[i].CPI *= 1.02
	}
	sum, err := CPIErrors(meas, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.RelMean-0.02) > 1e-9 {
		t.Errorf("CPI rel mean = %g, want 0.02", sum.RelMean)
	}
}

func TestAggregate(t *testing.T) {
	sums := []ErrorSummary{
		{AbsMean: 0.001, AbsMax: 0.01, RelMean: 0.1, RelMax: 0.5, Points: 10},
		{AbsMean: 0.003, AbsMax: 0.027, RelMean: 0.4, RelMax: 2.35, Points: 10},
	}
	agg := Aggregate(sums)
	if math.Abs(agg.AbsMean-0.002) > 1e-12 {
		t.Errorf("agg abs mean = %g, want 0.002", agg.AbsMean)
	}
	if agg.AbsMax != 0.027 || agg.RelMax != 2.35 {
		t.Errorf("agg maxima wrong: %+v", agg)
	}
	if agg.Points != 20 {
		t.Errorf("agg points = %d", agg.Points)
	}
	if got := Aggregate(nil); got.Points != 0 {
		t.Error("empty aggregate should be zero")
	}
}
