package main

import (
	"fmt"
	"math"

	"repro/internal/calibrate"
	"repro/internal/model"
	"repro/internal/scc"
	"repro/internal/sim"
)

// probeModel evaluates the closed forms and refits Table 1 from put/get
// microbenchmarks, the way the paper derived it.
func probeModel(p *probeCtx) {
	bp := model.BcastParamsFor(p.topo, p.n, ocK)
	rp := model.ReduceParamsFor(p.topo, p.n, ocK)
	var sink sim.Duration
	p.v["model.eval_ns"] = p.batches("probe.model.eval", func(int) int64 {
		const reps = 1000
		for i := 0; i < reps; i++ {
			m := model.New(p.cfg.Params)
			sink += m.OCBcastLatency(bp, refLines, ocK) + m.OCAllReduceLatency(rp, occollLines, ocK) + m.CMemPut(extentLines, 1, 1)
		}
		return 3 * reps
	})
	if sink <= 0 {
		p.fail(fmt.Errorf("model: closed-form latencies sum to %v", sink))
	}

	var fit calibrate.Fit
	p.v["calibrate.fit_ms"] = p.batches("probe.calibrate.fit", func(int) int64 {
		var err error
		fit, err = calibrate.FitParams(calibrate.Microbench(p.cfg, nil))
		if err != nil {
			panic(err)
		}
		return 1
	}) / 1e6
	truth, got := scc.Table1(), fit.Params
	var worst float64
	for _, pair := range [][2]sim.Duration{
		{truth.Lhop, got.Lhop}, {truth.OMpb, got.OMpb}, {truth.OMemW, got.OMemW}, {truth.OMemR, got.OMemR},
		{truth.OMpbPut, got.OMpbPut}, {truth.OMpbGet, got.OMpbGet}, {truth.OMemPut, got.OMemPut}, {truth.OMemGet, got.OMemGet},
	} {
		worst = math.Max(worst, modelErrPct(pair[1].Microseconds(), pair[0].Microseconds()))
	}
	p.v["calibrate.fit_err_pct"] = worst
}
