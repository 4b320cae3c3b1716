package harness

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/scc"
)

// Fig6Ks are the OC-Bcast fan-outs plotted in Figure 6.
var Fig6Ks = []int{2, 7, 47}

// Fig6Sizes is the x-axis of Figure 6a (cache lines, up to 192 = 2·Moc).
var Fig6Sizes = []int{1, 4, 8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192}

// Fig6 regenerates Figure 6 (and its 6b zoom): the *modeled* broadcast
// latency of OC-Bcast (k = 2, 7, 47) versus the RCCE_comm binomial tree,
// from the analytical model only — no simulation.
func Fig6(cfg scc.Config, effort int) ([]*Table, error) {
	mdl := model.New(cfg.Params)
	bp := model.DefaultBcastParams()

	tbl := &Table{
		Title:   "Figure 6 — modeled broadcast latency (µs), P = 48",
		Columns: []string{"CL", "k=2", "k=7", "k=47", "binomial"},
		Notes: []string{
			"Analytical model (Formulas 13-14 + notification costs).",
			"Paper shape: OC-Bcast below binomial everywhere; gap grows with",
			"size; k=47 worst at 1 CL (root polls 47 flags); slope changes",
			"past Moc = 96 CL.",
		},
	}
	for _, n := range Fig6Sizes {
		row := []string{fmt.Sprint(n)}
		for _, k := range Fig6Ks {
			row = append(row, fmt.Sprintf("%.2f", mdl.OCBcastLatency(bp, n, k).Microseconds()))
		}
		row = append(row, fmt.Sprintf("%.2f", mdl.BinomialLatency(bp, n).Microseconds()))
		tbl.Rows = append(tbl.Rows, row)
	}
	return []*Table{tbl}, nil
}

// Table2 regenerates the paper's Table 2: modeled peak broadcast
// throughput in MB/s for OC-Bcast (k-independent, Formula 15) and
// two-sided scatter-allgather (Formula 16).
func Table2(cfg scc.Config, effort int) ([]*Table, error) {
	mdl := model.New(cfg.Params)
	bp := model.DefaultBcastParams()
	oc := model.LinesPerSecToMBps(mdl.OCBcastThroughput(bp))
	sag := model.LinesPerSecToMBps(mdl.SAGThroughput(bp))

	tbl := &Table{
		Title:   "Table 2 — modeled peak broadcast throughput (MB/s)",
		Columns: []string{"algorithm", "throughput MB/s"},
		Notes: []string{
			fmt.Sprintf("OC-Bcast / scatter-allgather ratio: %.2fx (paper: almost 3x;", oc/sag),
			"paper values 34.30-35.88 vs 13.38 MB/s).",
		},
	}
	tbl.AddRow("OC-Bcast, k=2", fmt.Sprintf("%.2f", oc))
	tbl.AddRow("OC-Bcast, k=7", fmt.Sprintf("%.2f", oc))
	tbl.AddRow("OC-Bcast, k=47", fmt.Sprintf("%.2f", oc))
	tbl.AddRow("scatter-allgather", fmt.Sprintf("%.2f", sag))
	return []*Table{tbl}, nil
}
