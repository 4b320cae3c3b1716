package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/scc"
)

// paperFigs are the experiments that regenerate the paper's own figures
// and tables, looked up by name in the registry.
var paperFigs = []string{"fig3", "table1", "fig4", "fig6", "table2", "fig8a", "fig8b", "headline"}

// probeHarness regenerates the paper's figures at effort 1 on the
// 48-core chip, once on one P and once on all of them.
func probeHarness(p *probeCtx) {
	byName := map[string]harness.Experiment{}
	for _, e := range harness.Registry() {
		byName[e.Name] = e
	}
	pass := func(name string) float64 {
		s := p.tr.begin(name, 0)
		t0 := time.Now()
		for _, fig := range paperFigs {
			e, ok := byName[fig]
			if !ok {
				panic(fmt.Sprintf("harness: experiment %q is not registered", fig))
			}
			tables, err := e.Run(scc.DefaultConfig(), 1)
			if err != nil || len(tables) == 0 {
				p.fail(fmt.Errorf("harness: %s produced %d tables, err %v", fig, len(tables), err))
			}
		}
		p.tr.end(s, int64(len(paperFigs)))
		return time.Since(t0).Seconds()
	}
	one := pass("probe.harness.paper_figs")
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	all := pass("probe.harness.paper_figs_nproc")
	runtime.GOMAXPROCS(prev)
	p.v["harness.paper_figs_s"] = one
	p.v["harness.parallel_ratio"] = all / one
}
