// Package report renders experiment results as aligned ASCII tables, CSV,
// and simple ASCII line charts — the textual equivalents of the paper's
// tables and figures.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple rectangular table with a title and column headers.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
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
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (RFC-4180-style quoting for cells
// containing commas or quotes).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series is one named line of a chart.
type Series struct {
	Name string
	Ys   []float64
}

// Chart is an ASCII line chart over a shared x-axis.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Xs     []float64
	Series []Series
	// Height is the plot's character height (default 20).
	Height int
	// Width is the plot's character width (default 72).
	Width int
	// LogX renders the x-axis on a log2 scale.
	LogX bool
	// RefY, when non-zero with RefYOn, draws a horizontal reference line
	// (the figures mark relative RT = 1.0).
	RefY   float64
	RefYOn bool
}

// markers assigns each series a plot glyph.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Write renders the chart.
func (c *Chart) Write(w io.Writer) error {
	if len(c.Xs) == 0 || len(c.Series) == 0 {
		_, err := fmt.Fprintf(w, "%s: (no data)\n", c.Title)
		return err
	}
	for _, s := range c.Series {
		if len(s.Ys) != len(c.Xs) {
			return fmt.Errorf("report: series %q has %d points for %d xs", s.Name, len(s.Ys), len(c.Xs))
		}
	}
	height := c.Height
	if height <= 0 {
		height = 20
	}
	width := c.Width
	if width <= 0 {
		width = 72
	}

	xv := make([]float64, len(c.Xs))
	for i, x := range c.Xs {
		if c.LogX {
			xv[i] = math.Log2(x)
		} else {
			xv[i] = x
		}
	}
	minX, maxX := xv[0], xv[0]
	for _, x := range xv {
		minX = math.Min(minX, x)
		maxX = math.Max(maxX, x)
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, y := range s.Ys {
			if math.IsNaN(y) {
				continue
			}
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
	}
	if c.RefYOn {
		minY = math.Min(minY, c.RefY)
		maxY = math.Max(maxY, c.RefY)
	}
	if math.IsInf(minY, 1) {
		minY, maxY = 0, 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	row := func(y float64) int {
		r := int((maxY - y) / (maxY - minY) * float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	col := func(x float64) int {
		cc := int((x - minX) / (maxX - minX) * float64(width-1))
		if cc < 0 {
			cc = 0
		}
		if cc >= width {
			cc = width - 1
		}
		return cc
	}
	if c.RefYOn {
		r := row(c.RefY)
		for cc := 0; cc < width; cc++ {
			grid[r][cc] = '.'
		}
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i, y := range s.Ys {
			if math.IsNaN(y) {
				continue
			}
			grid[row(y)][col(xv[i])] = m
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for r, line := range grid {
		label := "         "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3f ", maxY)
		case height - 1:
			label = fmt.Sprintf("%8.3f ", minY)
		case (height - 1) / 2:
			label = fmt.Sprintf("%8.3f ", (maxY+minY)/2)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "%s+%s\n", strings.Repeat(" ", 9), strings.Repeat("-", width))
	xl, xr := c.Xs[0], c.Xs[len(c.Xs)-1]
	axis := fmt.Sprintf("%-10.4g%s%10.4g", xl, strings.Repeat(" ", max(0, width-20)), xr)
	fmt.Fprintf(&b, "%s %s", strings.Repeat(" ", 9), axis)
	if c.XLabel != "" {
		fmt.Fprintf(&b, "   [%s]", c.XLabel)
	}
	b.WriteByte('\n')
	for si, s := range c.Series {
		fmt.Fprintf(&b, "          %c = %s\n", markers[si%len(markers)], s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float compactly for table cells.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

// WriteMarkdown renders the table as GitHub-flavored Markdown, the format
// used by EXPERIMENTS.md.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
