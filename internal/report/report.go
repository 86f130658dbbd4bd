// Package report renders experiment results as fixed-width text
// tables, CSV, and unicode sparklines — the output layer of the
// benchmark harness and the cmd/ tools.
package report

import (
	"fmt"
	"strings"

	"cachepirate/internal/analysis"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; missing cells render empty, extra cells widen the
// table.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// columns returns the width of each column.
func (t *Table) columns() []int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.Headers {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	w := t.columns()
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i := 0; i < len(w); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		var rule []string
		for i := range w {
			rule = append(rule, strings.Repeat("-", w[i]))
		}
		line(rule)
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers first).
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		row(t.Headers)
	}
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// MB formats a byte count in binary megabytes with one decimal.
func MB(bytes int64) string {
	return fmt.Sprintf("%.1fMB", float64(bytes)/(1<<20))
}

// Pct formats a ratio as a percentage with the given decimals.
func Pct(ratio float64, decimals int) string {
	return fmt.Sprintf("%.*f%%", decimals, ratio*100)
}

// GBs formats a bandwidth in GB/s.
func GBs(v float64) string { return fmt.Sprintf("%.2fGB/s", v) }

// F formats a float with the given decimals.
func F(v float64, decimals int) string { return fmt.Sprintf("%.*f", decimals, v) }

// sparkRunes are the eight block heights of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode bar series, scaled to
// the series' own min..max range (a flat series renders mid-height).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 3 // mid-height for flat series
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// CurveTable renders a measurement curve as a table with one row per
// cache size: the Fig. 8 panels in text form.
func CurveTable(title string, c *analysis.Curve) *Table {
	t := NewTable(title, "cache", "CPI", "BW", "fetch", "miss", "pirateFR", "trusted")
	for _, p := range c.Points {
		t.Add(
			MB(p.CacheBytes),
			F(p.CPI, 3),
			GBs(p.BandwidthGBs),
			Pct(p.FetchRatio, 2),
			Pct(p.MissRatio, 2),
			Pct(p.PirateFetchRatio, 2),
			fmt.Sprintf("%v", p.Trusted),
		)
	}
	return t
}

// CurveSparklines summarises a curve as one line per metric.
func CurveSparklines(c *analysis.Curve) string {
	var cpi, bw, fetch, miss []float64
	for _, p := range c.Points {
		cpi = append(cpi, p.CPI)
		bw = append(bw, p.BandwidthGBs)
		fetch = append(fetch, p.FetchRatio)
		miss = append(miss, p.MissRatio)
	}
	return fmt.Sprintf("CPI %s  BW %s  fetch %s  miss %s",
		Sparkline(cpi), Sparkline(bw), Sparkline(fetch), Sparkline(miss))
}
