package main

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/core"
)

// probeAlgsel builds the model-driven decision table for the workload's
// chip and looks choices up in it. No workload uses Algorithm "auto", so
// nothing end to end should follow these numbers.
func probeAlgsel(p *probeCtx) {
	var plan *algsel.Plan
	p.v["algsel.tune_ms"] = p.batches("probe.algsel.tune", func(int) int64 {
		plan = algsel.Tune(p.cfg.Params, p.topo, p.n, core.DefaultConfig())
		return 1
	}) / 1e6

	sizes := []int{1, 16, 96, 256, 1024, 8192}
	p.v["algsel.choose_ns"] = p.batches("probe.algsel.choose", func(int) int64 {
		var n, chosen int64
		for rep := 0; rep < 200; rep++ {
			for _, op := range algsel.Ops() {
				for _, lines := range sizes {
					if _, ok := plan.Choose(op, lines); ok {
						chosen++
					}
					n++
				}
			}
		}
		if chosen == 0 {
			p.fail(fmt.Errorf("algsel: the tuned plan chooses nothing for any op"))
		}
		return n
	})
}
