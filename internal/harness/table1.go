package harness

import (
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Table1 regenerates the paper's Table 1 by the paper's own method:
// microbenchmark put/get across distances and sizes, then least-squares
// fit the LogP parameters. The "configured" column is the ground truth
// the simulator was parameterised with (the paper's measured values);
// "fitted" is what calibration recovers from the microbenchmarks.
func Table1(cfg scc.Config, effort int) ([]*Table, error) {
	samples := calibrate.Microbench(cfg, []int{1, 2, 4, 8, 16, 32})
	fit, err := calibrate.FitParams(samples)
	if err != nil {
		return nil, err
	}
	truth := cfg.Params

	tbl := &Table{
		Title:   "Table 1 — model parameters (µs), fitted from microbenchmarks",
		Columns: []string{"parameter", "paper/configured", "fitted", "R² family"},
	}
	row := func(name string, want, got sim.Duration, fam string) {
		r2 := ""
		if fam != "" {
			r2 = fmt.Sprintf("%s (R²=%.6f)", fam, fit.R2[fam])
		}
		tbl.Rows = append(tbl.Rows, []string{
			name,
			fmt.Sprintf("%.3f", want.Microseconds()),
			fmt.Sprintf("%.3f", got.Microseconds()),
			r2,
		})
	}
	row("Lhop", truth.Lhop, fit.Params.Lhop, "mpbGet")
	row("o^mpb", truth.OMpb, fit.Params.OMpb, "mpbGet")
	row("o^mem_w", truth.OMemW, fit.Params.OMemW, "memGet")
	row("o^mem_r", truth.OMemR, fit.Params.OMemR, "memPut")
	row("o^mpb_put", truth.OMpbPut, fit.Params.OMpbPut, "mpbPut")
	row("o^mpb_get", truth.OMpbGet, fit.Params.OMpbGet, "mpbGet")
	row("o^mem_put", truth.OMemPut, fit.Params.OMemPut, "memPut")
	row("o^mem_get", truth.OMemGet, fit.Params.OMemGet, "memGet")
	return []*Table{tbl}, nil
}
