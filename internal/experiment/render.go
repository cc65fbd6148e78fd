package experiment

import (
	"fmt"
	"io"
	"strings"
)

// writeTable renders rows, the first of them the header, as an
// aligned ASCII table under title.
func writeTable(w io.Writer, title string, rows [][]string) error {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", title); err != nil {
		return err
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
		if ri == 0 {
			if _, err := fmt.Fprintln(w, strings.Repeat("-", totalWidth(widths))); err != nil {
				return err
			}
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func totalWidth(widths []int) int {
	t := 0
	for i, w := range widths {
		if i > 0 {
			t += 2
		}
		t += w
	}
	return t
}

// WriteSeriesCSV emits one or more timelines as CSV with a shared time
// axis (time_us, then one column per series).
func WriteSeriesCSV(w io.Writer, series ...Series) error {
	if len(series) == 0 {
		return nil
	}
	maxLen := 0
	for _, s := range series {
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
	}
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, "time_us")
	for _, s := range series {
		cols = append(cols, s.Name+"_mtps")
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(series)+1)
		var ts float64
		for _, s := range series {
			if i < len(s.Points) {
				ts = s.Points[i].TimeUS
				break
			}
		}
		row = append(row, fmt.Sprintf("%.1f", ts))
		for _, s := range series {
			v := 0.0
			if i < len(s.Points) {
				v = s.Points[i].MTPS
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
