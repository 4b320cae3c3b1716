// Package harness regenerates every table and figure of the paper's
// evaluation as plain-text tables: Figure 3 (put/get vs distance),
// Table 1 (model parameters via calibration), Figure 4 (MPB contention),
// Figure 6 (modeled broadcast latency), Table 2 (modeled throughput),
// Figure 8a/8b (measured broadcast latency/throughput), the §3.3
// mesh-stress experiment, the §6.2.1 headline numbers, and the design
// ablations of the paper's §4 and §5.4 choices — plus the repo's
// beyond-the-paper experiments: fig-allreduce (one-sided vs two-sided
// allreduce, §7), fig-overlap, fig-crossover, fig-apps, fig-serving and
// fig-scale (model vs simulation on parametric meshes up to 384 cores).
//
// Experiments are registered by name in Registry and rendered as Tables.
// Every simulated collective point is a Cell, measured by one §6.1 loop
// and sharded across ParallelMap workers by Grid without changing any
// simulated timing. See ARCHITECTURE.md for how to plug in a new
// experiment.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row formatted from arbitrary values.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n%s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}
