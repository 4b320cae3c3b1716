package harness

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/scc"
)

// fig8 fills one panel of Figure 8: the paper's OC-Bcast at k = 2, 7 and
// 47 against a baseline broadcast on 48 cores, root 0, one row per size
// of value(lines, mean latency).
func fig8(cfg scc.Config, tbl *Table, baseline string, sizes []int, reps func(lines int) int,
	value func(lines int, us float64) float64) []*Table {
	cols := []Cell{
		newCell(cfg, algsel.OpBcast, "ocbcast", 2), newCell(cfg, algsel.OpBcast, "ocbcast", 7),
		newCell(cfg, algsel.OpBcast, "ocbcast", 47), newCell(cfg, algsel.OpBcast, baseline, 0),
	}
	lat := sweep(len(sizes), len(cols), func(r, c int) Cell { return cols[c].sized(sizes[r], reps(sizes[r])) })
	for i, lines := range sizes {
		row := []string{fmt.Sprint(lines)}
		for _, us := range lat[i] {
			row = append(row, fmt.Sprintf("%.2f", value(lines, us)))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return []*Table{tbl}
}

// Fig8aSizes is the x-axis of Figure 8a (small messages, ≤ 2·Moc lines).
var Fig8aSizes = []int{1, 8, 16, 32, 48, 64, 80, 96, 97, 112, 128, 160, 192}

// Fig8a regenerates Figure 8a: *measured* (simulated) broadcast latency
// of OC-Bcast (k = 2, 7, 47) versus the RCCE_comm binomial tree on 48
// cores, root 0, at 2 repetitions per unit of effort.
func Fig8a(cfg scc.Config, effort int) ([]*Table, error) {
	return fig8(cfg, &Table{
		Title:   "Figure 8a — measured broadcast latency (µs), P = 48, root 0",
		Columns: []string{"CL", "k=2", "k=7", "k=47", "binomial"},
		Notes: []string{
			"Simulated on the SCC model with the contention and cache models",
			"on. Paper shape: OC-Bcast wins at every size (>=27% at 1 CL);",
			"k=7 ~ k=47 (MPB contention erases the model's k=47 edge).",
		},
	}, "binomial", Fig8aSizes, func(int) int { return 2 * effort }, func(_ int, us float64) float64 { return us }), nil
}

// Fig8bSizes is the log-spaced x-axis of Figure 8b (1 CL .. 32768 CL = 1 MiB).
var Fig8bSizes = []int{1, 4, 16, 64, 96, 97, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// Fig8b regenerates Figure 8b: measured broadcast *throughput* (MB/s) of
// OC-Bcast versus the RCCE_comm scatter-allgather across four decades of
// message size. Expected shape: OC-Bcast's curve saturates near the
// Table 2 prediction (~3× scatter-allgather's peak), with a visible dip
// at 97 CL (a full 96-line chunk plus a 1-line chunk).
func Fig8b(cfg scc.Config, effort int) ([]*Table, error) {
	reps := func(lines int) int {
		if lines >= 8192 {
			return min(1+effort, 2) // large sizes are slow to simulate and low variance
		}
		return 1 + effort
	}
	return fig8(cfg, &Table{
		Title:   "Figure 8b — measured broadcast throughput (MB/s), P = 48, root 0",
		Columns: []string{"CL", "k=2", "k=7", "k=47", "s-ag"},
		Notes: []string{
			"Throughput = message bytes / measured latency.",
			"Paper shape: OC-Bcast peak ~3x scatter-allgather; dip at 97 CL;",
			"k=47 ~16% below its model prediction (MPB contention).",
		},
	}, "sag", Fig8bSizes, reps, ThroughputMBps), nil
}

// Headline regenerates the §6.2.1 headline comparison: 1-cache-line
// broadcast latency, OC-Bcast k=7 versus binomial (paper: 16.6 µs vs
// 21.6 µs, a 27% improvement), plus the peak-throughput ratio versus
// scatter-allgather (paper: almost 3×).
func Headline(cfg scc.Config, effort int) ([]*Table, error) {
	const large = 8192
	oc := newCell(cfg, algsel.OpBcast, "ocbcast", 7)
	lat := Grid([]Cell{
		oc.sized(1, 2*effort),
		newCell(cfg, algsel.OpBcast, "binomial", 0).sized(1, 2*effort),
		oc.sized(large, 2),
		newCell(cfg, algsel.OpBcast, "sag", 0).sized(large, 2),
	})
	oc1, bin1 := lat[0], lat[1]
	ocT := ThroughputMBps(large, lat[2])
	sagT := ThroughputMBps(large, lat[3])

	tbl := &Table{
		Title:   "Headline results (§6.2) — paper vs this reproduction",
		Columns: []string{"metric", "paper", "measured (sim)"},
	}
	tbl.AddRow("1-CL latency, OC-Bcast k=7 (µs)", "16.6", fmt.Sprintf("%.2f", oc1))
	tbl.AddRow("1-CL latency, binomial (µs)", "21.6", fmt.Sprintf("%.2f", bin1))
	tbl.AddRow("latency improvement", "27%", fmt.Sprintf("%.0f%%", 100*(bin1-oc1)/bin1))
	tbl.AddRow("peak throughput OC-Bcast (MB/s)", "~34-36", fmt.Sprintf("%.2f", ocT))
	tbl.AddRow("peak throughput scatter-allgather (MB/s)", "~13.4", fmt.Sprintf("%.2f", sagT))
	tbl.AddRow("throughput ratio", "almost 3x", fmt.Sprintf("%.2fx", ocT/sagT))
	return []*Table{tbl}, nil
}
