package harness

import (
	"fmt"

	"repro/internal/scc"
	"repro/internal/workload"
)

// FigAllReduce measures allreduce latency across payload sizes and
// fan-outs — the paper's §7 extension evaluated with §6.1's methodology.
// The registered allreduce algorithms it compares:
//
//	oc        one-sided OC-AllReduce (internal/occoll), fan-out k = 2, 3, 7
//	twosided  binomial two-sided Reduce + binomial two-sided Bcast
//	hybrid    two-sided Reduce + OC-Bcast of the result (the composition
//	          the paper's §7 suggests; the public AllReduce's default)
func FigAllReduce(cfg scc.Config, effort int) ([]*Table, error) {
	t := &Table{
		Title: "fig-allreduce: AllReduce latency (µs), one-sided vs two-sided, 48 cores",
		Columns: []string{"size", "lines", "OC k=2", "OC k=3", "OC k=7",
			"2-sided", "hybrid", "speedup (2-sided/best-OC)"},
		Notes: []string{
			"OC k=x: occoll AllReduce (OC-Reduce + OC-Bcast, one tree, one-sided RMA only).",
			"2-sided: binomial RCCE reduce + binomial RCCE broadcast.",
			"hybrid: binomial RCCE reduce + OC-Bcast k=7 (the §7 composition).",
		},
	}
	sizes := []int{1, 8, 32, 96, 256, 512, 1024}
	cols := []Cell{
		newCell(cfg, workload.OpAllReduce, "oc", 2), newCell(cfg, workload.OpAllReduce, "oc", 3),
		newCell(cfg, workload.OpAllReduce, "oc", 7), newCell(cfg, workload.OpAllReduce, "twosided", 0),
		newCell(cfg, workload.OpAllReduce, "hybrid", 0),
	}
	lat := sweep(len(sizes), len(cols), func(r, c int) Cell { return cols[c].sized(sizes[r]) })
	for i, lines := range sizes {
		oc, ts, hy := lat[i][:3], lat[i][3], lat[i][4]
		best := min(oc[0], oc[1], oc[2])
		t.AddRow(sizeLabel(lines), lines, oc[0], oc[1], oc[2], ts, hy, fmt.Sprintf("%.2fx", ts/best))
	}
	return []*Table{t}, nil
}
