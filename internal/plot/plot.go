// Package plot renders experiment series as ASCII line charts for terminal
// inspection and writes gnuplot-compatible .dat files so every figure of the
// paper can be regenerated with the same tooling the authors used.
package plot

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one labelled line of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Categorical returns a series over a categorical axis: value i is
// plotted at x = i.
func Categorical(label string, ys ...float64) Series {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	return Series{Label: label, X: xs, Y: ys}
}

// Figure is a reproducible plot: an identifier matching the paper's figure
// numbering, axis labels, and one or more series.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// LogX marks a logarithmic x-axis (the paper's Fig. 8).
	LogX   bool
	Series []Series
}

// alignedX returns the common x grid if every series shares one.
func (f Figure) alignedX() ([]float64, bool) {
	if len(f.Series) == 0 {
		return nil, false
	}
	base := f.Series[0].X
	for _, s := range f.Series {
		if len(s.X) != len(base) || len(s.X) != len(s.Y) {
			return nil, false
		}
		for i := range s.X {
			if s.X[i] != base[i] {
				return nil, false
			}
		}
	}
	return base, true
}

// WriteDat writes the figure as a gnuplot-style data file: a comment header,
// then one row per x value with one column per series when all series share
// an x grid, or one block per series otherwise.
func (f Figure) WriteDat(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(bw, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	if aligned, ok := f.alignedX(); ok {
		fmt.Fprintf(bw, "# columns: %s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(bw, "\t%s", s.Label)
		}
		fmt.Fprintln(bw)
		for i, x := range aligned {
			fmt.Fprintf(bw, "%g", x)
			for _, s := range f.Series {
				fmt.Fprintf(bw, "\t%g", s.Y[i])
			}
			fmt.Fprintln(bw)
		}
		return bw.Flush()
	}
	for _, s := range f.Series {
		fmt.Fprintf(bw, "\n# series: %s\n", s.Label)
		for i := range s.X {
			if i < len(s.Y) {
				fmt.Fprintf(bw, "%g\t%g\n", s.X[i], s.Y[i])
			}
		}
	}
	return bw.Flush()
}

var seriesMarks = []byte{'*', '+', 'o', 'x', '#', '@'}

// Render draws the figure as an ASCII chart of the given size (columns ×
// rows of the plotting area, excluding axes). It is intentionally simple:
// each series point maps to the nearest cell; later series overdraw earlier
// ones.
func (f Figure) Render(w io.Writer, width, height int) error {
	bw := bufio.NewWriter(w)
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	fmt.Fprintf(bw, "%s — %s\n", f.ID, f.Title)

	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := 0.0, math.Inf(-1) // anchor y at 0, like the paper's plots
	for _, s := range f.Series {
		for i := range s.X {
			x := f.xCoord(s.X[i])
			if x < xMin {
				xMin = x
			}
			if x > xMax {
				xMax = x
			}
			if s.Y[i] > yMax {
				yMax = s.Y[i]
			}
			if s.Y[i] < yMin {
				yMin = s.Y[i]
			}
		}
	}
	if math.IsInf(xMin, 1) || yMax <= yMin {
		fmt.Fprintln(bw, "  (no data)")
		return bw.Flush()
	}
	if xMax == xMin {
		xMax = xMin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i := range s.X {
			col := int((f.xCoord(s.X[i]) - xMin) / (xMax - xMin) * float64(width-1))
			row := int((s.Y[i] - yMin) / (yMax - yMin) * float64(height-1))
			grid[height-1-row][col] = mark
		}
	}
	for r, line := range grid {
		yTop := yMax - (yMax-yMin)*float64(r)/float64(height-1)
		fmt.Fprintf(bw, "%8.2f |%s\n", yTop, string(line))
	}
	fmt.Fprintf(bw, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(bw, "%9s%-*g%*g\n", "", width/2, f.labelX(xMin), width-width/2, f.labelX(xMax))
	fmt.Fprintf(bw, "%9sx: %s   y: %s\n", "", f.XLabel, f.YLabel)
	for si, s := range f.Series {
		fmt.Fprintf(bw, "%9s%c %s\n", "", seriesMarks[si%len(seriesMarks)], s.Label)
	}
	return bw.Flush()
}

func (f Figure) xCoord(x float64) float64 {
	if f.LogX && x > 0 {
		return math.Log10(x)
	}
	return x
}

func (f Figure) labelX(coord float64) float64 {
	if f.LogX {
		return math.Pow(10, coord)
	}
	return coord
}

// PrintTable writes the figure's series as the rows the paper reports: one
// row per x value, one column per series.
func (f Figure) PrintTable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s — %s\n", f.ID, f.Title)
	aligned, ok := f.alignedX()
	if !ok {
		for _, s := range f.Series {
			fmt.Fprintf(bw, "series %s:\n", s.Label)
			for i := range s.X {
				fmt.Fprintf(bw, "  %-12g %g\n", s.X[i], s.Y[i])
			}
		}
		return bw.Flush()
	}
	fmt.Fprintf(bw, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(bw, " %13s", s.Label) // a long label stays apart
	}
	fmt.Fprintln(bw)
	for i, x := range aligned {
		fmt.Fprintf(bw, "%-14g", x)
		for _, s := range f.Series {
			fmt.Fprintf(bw, "%14.4f", s.Y[i])
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
