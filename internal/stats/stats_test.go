package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%g): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("expected error for empty slice")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("expected error for p > 100")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("expected error for p < 0")
	}
	// Percentile must not reorder its input.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile modified its input slice")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile([]float64{0, 10}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("Percentile([0,10], 30) = %g, want 3", got)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(0, 0, 10, 100, 5); got != 50 {
		t.Errorf("Lerp midpoint = %g, want 50", got)
	}
	if got := Lerp(2, 7, 2, 9, 2); got != 7 {
		t.Errorf("degenerate Lerp = %g, want 7", got)
	}
}

func TestInterpAt(t *testing.T) {
	xs := []float64{1, 2, 4}
	ys := []float64{10, 20, 40}
	cases := []struct{ x, want float64 }{
		{0, 10},   // clamp low
		{5, 40},   // clamp high
		{1, 10},   // endpoint
		{3, 30},   // interior
		{1.5, 15}, // interior
	}
	for _, c := range cases {
		got, err := InterpAt(xs, ys, c.x)
		if err != nil {
			t.Fatalf("InterpAt(%g): %v", c.x, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("InterpAt(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if _, err := InterpAt(nil, nil, 1); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := InterpAt(xs, ys[:2], 1); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestInterpAtBetweenSamplesProperty(t *testing.T) {
	// Interpolated values must lie between the bracketing ys.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{0, 5, 3, 8, 8, 1}
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 5)
		if math.IsNaN(x) {
			return true
		}
		v, err := InterpAt(xs, ys, x)
		if err != nil {
			return false
		}
		i := int(x)
		if i >= 5 {
			i = 4
		}
		lo, hi := ys[i], ys[i+1]
		if lo > hi {
			lo, hi = hi, lo
		}
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
