package harness

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Fig3Sizes are the message sizes plotted in Figure 3.
var Fig3Sizes = []int{1, 4, 8, 16}

// coreWithMemDistance finds a core whose memory-controller distance is d.
func coreWithMemDistance(d int) (int, bool) {
	for c := 0; c < scc.NumCores; c++ {
		if scc.MemDistance(c) == d {
			return c, true
		}
	}
	return 0, false
}

// coreAtMPBDistance finds a core ≠ 0 whose tile is d hops from core 0's.
func coreAtMPBDistance(d int) (int, bool) {
	for tile := 0; tile < scc.NumTiles; tile++ {
		if scc.HopDistance(scc.TileCoord(0), scc.TileCoord(tile)) == d {
			return tile*scc.CoresPerTile + 1, true
		}
	}
	return 0, false
}

// Fig3 regenerates Figure 3: completion times of the four put/get
// families as a function of hop distance, simulated (Exp) versus the
// analytic model (Model). MPB↔MPB ops sweep distances 1–9; memory ops
// sweep memory-controller distances 1–4, operating on the core's own MPB
// — exactly the paper's four panels.
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

	type probe struct {
		op   string
		dist int
		run  func(c *rma.Core, target, n int) // executed on core `actor`
		mdl  func(n, d int) sim.Duration
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

	// MPB <-> MPB put/get across distances 1..9, actor = core 0.
	for d := 1; d <= 9; d++ {
		target, ok := coreAtMPBDistance(d)
		if !ok {
			continue
		}
		for _, n := range Fig3Sizes {
			chip := rma.NewChip(cfg)
			var putT, getT sim.Duration
			chip.Run(func(c *rma.Core) {
				if c.ID() != 0 {
					return
				}
				t0 := c.Now()
				c.PutMPBToMPB(target, 0, 0, n)
				putT = c.Now() - t0
				t0 = c.Now()
				c.GetMPBToMPB(target, 0, 0, n)
				getT = c.Now() - t0
			})
			addRow("put mpb->mpb", n, d, putT, mdl.CMpbPut(n, d))
			addRow("get mpb->mpb", n, d, getT, mdl.CMpbGet(n, d))
		}
	}

	// Memory <-> MPB across controller distances 1..4, own MPB (d=1).
	for d := 1; d <= 4; d++ {
		actor, ok := coreWithMemDistance(d)
		if !ok {
			continue
		}
		for _, n := range Fig3Sizes {
			chip := rma.NewChip(cfg)
			chip.Private(actor).Write(0, make([]byte, n*scc.CacheLine))
			var putT, getT sim.Duration
			chip.Run(func(c *rma.Core) {
				if c.ID() != actor {
					return
				}
				t0 := c.Now()
				c.PutMemToMPB(actor, 0, 0, n)
				putT = c.Now() - t0
				t0 = c.Now()
				c.GetMPBToMem(actor, 0, 0, n)
				getT = c.Now() - t0
			})
			addRow("put mem->mpb", n, d, putT, mdl.CMemPut(n, d, 1))
			addRow("get mpb->mem", n, d, getT, mdl.CMemGet(n, 1, d))
		}
	}
	return []*Table{tbl}, nil
}
