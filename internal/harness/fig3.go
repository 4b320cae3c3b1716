package harness

import (
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/model"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Fig3Sizes are the message sizes plotted in Figure 3.
var Fig3Sizes = []int{1, 4, 8, 16}

// coreWithMemDistance finds a core of the topology whose
// memory-controller distance is d.
func coreWithMemDistance(topo scc.Topology, d int) (int, bool) {
	for c := 0; c < topo.NumCores(); c++ {
		if topo.MemDistance(c) == d {
			return c, true
		}
	}
	return 0, false
}

// Fig3 regenerates Figure 3: completion times of the four put/get
// families as a function of hop distance, simulated (Exp) versus the
// analytic model (Model). MPB↔MPB ops sweep distances 1–9 and are Table
// 1's own microbenchmark samples (calibrate.Microbench, actor core 0);
// memory ops sweep memory-controller distances 1–4, operating on the
// actor's own MPB — exactly the paper's four panels.
func Fig3(cfg scc.Config, effort int) ([]*Table, error) {
	cfg.Contention.Enabled = false // §3.2 measures contention-free ops
	cfg.CacheEnabled = false
	mdl := model.New(cfg.Params)

	tbl := &Table{
		Title:   "Figure 3 — put/get completion time vs distance (µs)",
		Columns: []string{"op", "CL", "dist", "exp(sim)", "model", "err%"},
		Notes: []string{
			"MPB<->MPB ops sweep router distances 1-9; memory ops sweep",
			"memory-controller distances 1-4 (the paper's four panels).",
		},
	}
	addRow := func(op string, n, d int, got sim.Duration, want sim.Duration) {
		errPct := 100 * (got.Microseconds() - want.Microseconds()) / want.Microseconds()
		tbl.Rows = append(tbl.Rows, []string{
			op, fmt.Sprint(n), fmt.Sprint(d),
			fmt.Sprintf("%.3f", got.Microseconds()),
			fmt.Sprintf("%.3f", want.Microseconds()),
			fmt.Sprintf("%+.2f", errPct),
		})
	}

	for _, s := range calibrate.Microbench(cfg, Fig3Sizes) {
		switch s.Op {
		case "mpbPut":
			addRow("put mpb->mpb", s.Lines, s.Dist, s.Duration, mdl.CMpbPut(s.Lines, s.Dist))
		case "mpbGet":
			addRow("get mpb->mpb", s.Lines, s.Dist, s.Duration, mdl.CMpbGet(s.Lines, s.Dist))
		}
	}

	// Memory <-> MPB across controller distances 1..4, own MPB (d=1).
	topo := cfg.Topology()
	for d := 1; d <= 4; d++ {
		actor, ok := coreWithMemDistance(topo, d)
		if !ok {
			continue
		}
		chip := rma.NewChip(cfg)
		chip.Private(actor).Write(0, make([]byte, Fig3Sizes[len(Fig3Sizes)-1]*scc.CacheLine))
		chip.Run(func(c *rma.Core) {
			if c.ID() != actor {
				return
			}
			for _, n := range Fig3Sizes {
				t0 := c.Now()
				c.PutMemToMPB(actor, 0, 0, n)
				addRow("put mem->mpb", n, d, c.Now()-t0, mdl.CMemPut(n, d, 1))
				t0 = c.Now()
				c.GetMPBToMem(actor, 0, 0, n)
				addRow("get mpb->mem", n, d, c.Now()-t0, mdl.CMemGet(n, 1, d))
			}
		})
	}
	return []*Table{tbl}, nil
}
