// Package report renders benchmark results as aligned ASCII tables and CSV
// series, mirroring the figures and tables of the paper so a run's output
// can be compared against the publication side by side. Its line writer
// (Lines, List) also backs the text form of the static-analysis reports.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Point is one measured latency at one x-value (row count or instance
// count).
type Point struct {
	Size int
	// Sim is the calibrated simulated latency (comparable to the paper).
	Sim time.Duration
	// Wall is this engine's raw latency.
	Wall time.Duration
	// StdDev is the simulated latency's spread across trials.
	StdDev time.Duration
}

// Series is one labeled latency curve, e.g. "excel/F".
type Series struct {
	Label  string
	Points []Point
}

// Sorted returns the points ordered by size.
func (s Series) Sorted() []Point {
	pts := append([]Point(nil), s.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Size < pts[j].Size })
	return pts
}

// FormatDuration renders a duration the way the paper's axes do: seconds
// with adaptive precision, or milliseconds below 100ms.
func FormatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < 100*time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d < 10*time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d < 10*time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%.0fs", d.Seconds())
	}
}

// FormatSize renders a row count compactly (150, 6k, 490k).
func FormatSize(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprint(n)
}

// WriteFigure renders a figure: one row per x-value, one column per series,
// simulated latencies. A title and optional note lines precede the table.
func WriteFigure(w io.Writer, title string, series []Series, notes ...string) error {
	l := NewLines(w)
	l.Printf("%s\n%s\n", title, strings.Repeat("=", len(title)))
	for _, n := range notes {
		l.Printf("# %s\n", n)
	}

	sizes := unionSizes(series)
	header := append([]string{"rows"}, labels(series)...)
	rows := make([][]string, 0, len(sizes))
	for _, size := range sizes {
		row := []string{FormatSize(size)}
		for _, s := range series {
			cell := "-"
			for _, p := range s.Points {
				if p.Size == size {
					cell = FormatDuration(p.Sim)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	writeAligned(l, header, rows)
	l.Println()
	return l.Err()
}

// WriteCSV emits the series as tidy CSV (label,size,sim_ns,wall_ns,std_ns)
// for external plotting. Write errors are returned, not dropped: result
// files land on real disks that fill up.
func WriteCSV(w io.Writer, series []Series) error {
	l := NewLines(w)
	l.Println("series,rows,sim_ns,wall_ns,std_ns")
	for _, s := range series {
		for _, p := range s.Sorted() {
			l.Printf("%s,%d,%d,%d,%d\n",
				s.Label, p.Size, p.Sim.Nanoseconds(), p.Wall.Nanoseconds(), p.StdDev.Nanoseconds())
		}
	}
	return l.Err()
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func unionSizes(series []Series) []int {
	seen := make(map[int]bool)
	var sizes []int
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.Size] {
				seen[p.Size] = true
				sizes = append(sizes, p.Size)
			}
		}
	}
	sort.Ints(sizes)
	return sizes
}

// writeAligned prints a header and rows with column alignment.
func writeAligned(l *Lines, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		l.Println(strings.TrimRight(b.String(), " "))
	}
	line(header)
	dashes := make([]string, len(header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, row := range rows {
		line(row)
	}
}

// Table2Row is one experiment row of the interactivity summary (Table 2):
// for each system and dataset variant, the percentage of the system's
// documented scalability limit at which the 500 ms bound is first violated
// (100% = never violated at the measured sizes; "x" = not measured).
type Table2Row struct {
	Experiment string
	// Cells maps "system/variant" (e.g. "excel/F") to the formatted
	// percentage.
	Cells map[string]string
}

// WriteTable2 renders the summary in the paper's layout: F columns then V
// columns for each system.
func WriteTable2(w io.Writer, rows []Table2Row, systems []string) error {
	title := "Table 2: % of scalability limit at first interactivity violation"
	l := NewLines(w)
	l.Printf("%s\n%s\n", title, strings.Repeat("=", len(title)))
	header := []string{"Experiment"}
	for _, variant := range []string{"F", "V"} {
		for _, sys := range systems {
			header = append(header, fmt.Sprintf("%s(%s)%%", sys, variant))
		}
	}
	var out [][]string
	for _, r := range rows {
		row := []string{r.Experiment}
		for _, variant := range []string{"F", "V"} {
			for _, sys := range systems {
				cell, ok := r.Cells[sys+"/"+variant]
				if !ok {
					cell = "x"
				}
				row = append(row, cell)
			}
		}
		out = append(out, row)
	}
	writeAligned(l, header, out)
	l.Println()
	return l.Err()
}

// FormatLimitPercent formats a violation row count as a percentage of the
// scalability limit, matching Table 2's precision.
func FormatLimitPercent(frac float64) string {
	pct := frac * 100
	switch {
	case pct >= 100:
		return "100"
	case pct >= 10:
		return fmt.Sprintf("%.0f", pct)
	case pct >= 1:
		return fmt.Sprintf("%.1f", pct)
	default:
		return fmt.Sprintf("%.3g", pct)
	}
}
