package report

import (
	"strings"
	"testing"

	"cachepirate/internal/analysis"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.Add("a", "1")
	tb.Add("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "T" {
		t.Errorf("title line = %q", lines[0])
	}
	// All non-title lines share the same width for column 1.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) < idx {
			t.Errorf("row %q shorter than header indent", l)
		}
	}
}

func TestTableNoTitleNoHeaders(t *testing.T) {
	tb := &Table{}
	tb.Add("x")
	out := tb.String()
	if strings.TrimSpace(out) != "x" {
		t.Errorf("bare table = %q", out)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.Add("1", "hello, world")
	tb.Add(`quote"d`, "2")
	csv := tb.CSV()
	want := "a,b\n1,\"hello, world\"\n\"quote\"\"d\",2\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestFormatters(t *testing.T) {
	if got := MB(6 << 20); got != "6.0MB" {
		t.Errorf("MB = %q", got)
	}
	if got := Pct(0.0553, 1); got != "5.5%" {
		t.Errorf("Pct = %q", got)
	}
	if got := GBs(10.4); got != "10.40GB/s" {
		t.Errorf("GBs = %q", got)
	}
	if got := F(3.14159, 2); got != "3.14" {
		t.Errorf("F = %q", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	runes := []rune(s)
	if len(runes) != 4 {
		t.Fatalf("sparkline length %d", len(runes))
	}
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline extremes wrong: %q", s)
	}
	// Flat series renders uniformly at mid height.
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	if flat[0] != flat[1] || flat[1] != flat[2] {
		t.Errorf("flat sparkline not uniform: %q", string(flat))
	}
}

func curveFixture() *analysis.Curve {
	return &analysis.Curve{Name: "x", Points: []analysis.Point{
		{CacheBytes: 1 << 20, CPI: 2.0, BandwidthGBs: 3.5, FetchRatio: 0.10, MissRatio: 0.05, Trusted: true},
		{CacheBytes: 8 << 20, CPI: 1.5, BandwidthGBs: 1.0, FetchRatio: 0.02, MissRatio: 0.01, Trusted: true},
	}}
}

func TestCurveTable(t *testing.T) {
	out := CurveTable("bench", curveFixture()).String()
	for _, want := range []string{"bench", "1.0MB", "8.0MB", "2.000", "3.50GB/s", "10.00%", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("curve table missing %q:\n%s", want, out)
		}
	}
}

func TestCurveSparklines(t *testing.T) {
	out := CurveSparklines(curveFixture())
	for _, want := range []string{"CPI", "BW", "fetch", "miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("sparklines missing %q: %q", want, out)
		}
	}
}
