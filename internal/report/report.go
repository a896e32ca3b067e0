// Package report renders benchmark output: aligned text tables in the
// layout of the paper's tables, and text sparklines for training curves
// (the paper's figures).
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; it must have as many cells as there are headers.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells for %d headers", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// sparkLevels are the glyphs used by Sparkline, lowest to highest.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode curve, ignoring negative
// sentinel values (rounds that were not evaluated).
func Sparkline(values []float64) string {
	var filtered []float64
	for _, v := range values {
		if v >= 0 && !math.IsNaN(v) {
			filtered = append(filtered, v)
		}
	}
	if len(filtered) == 0 {
		return ""
	}
	mn, mx := filtered[0], filtered[0]
	for _, v := range filtered {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	var b strings.Builder
	for _, v := range filtered {
		idx := 0
		if mx > mn {
			idx = int((v - mn) / (mx - mn) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Curve renders a labelled accuracy curve with its range, e.g.
// "FedAvg   0.31→0.67  ▁▃▅▆▇█".
func Curve(label string, values []float64) string {
	var filtered []float64
	for _, v := range values {
		if v >= 0 && !math.IsNaN(v) {
			filtered = append(filtered, v)
		}
	}
	if len(filtered) == 0 {
		return fmt.Sprintf("%-22s (no evaluations)", label)
	}
	return fmt.Sprintf("%-22s %.3f→%.3f  %s", label, filtered[0], filtered[len(filtered)-1], Sparkline(values))
}

// Percent formats a fraction as "61.2%".
func Percent(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Bytes formats a byte count in the paper's MB units.
func Bytes(n float64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", n)
	}
}
