package harness

import (
	"fmt"

	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/stats"
)

// Fig4Counts is the x-axis of Figure 4: concurrent accessors of core 0's
// MPB.
var Fig4Counts = []int{1, 2, 4, 6, 8, 12, 16, 24, 32, 40, 48}

// Fig4 regenerates Figure 4: average and per-core spread of completion
// times when N cores concurrently (a) get 128 cache lines from core 0's
// MPB and (b) put 1 cache line into it, looping `iters` iterations to
// reach the steady state the paper averages over (25 per unit of
// effort). The paper's finding: no measurable contention up to ~24
// accessors, then a knee, with the slowest core >2× the fastest for gets
// and >4× for puts at 48.
func Fig4(cfg scc.Config, effort int) ([]*Table, error) {
	iters := 25 * effort
	tbl := &Table{
		Title:   "Figure 4 — MPB contention: concurrent access to core 0's MPB (µs)",
		Columns: []string{"op", "cores", "avg", "fastest", "slowest", "slow/fast"},
		Notes: []string{
			fmt.Sprintf("Steady-state average over %d iterations per core.", iters),
			"Paper: contention invisible up to 24 accessors; at 48, slowest",
			"core >2x the fastest for 128-CL gets, >4x for 1-CL puts.",
		},
	}

	// Each (op, accessor-count) cell simulates on its own chip, so the
	// cells shard across ParallelMap workers; rows keep the sweep order.
	// With core 0 the target, at most the 47 other cores can access it.
	type cell struct {
		op   string
		n    int
		body func(c *rma.Core) float64
	}
	var cells []cell
	for _, n := range Fig4Counts {
		cells = append(cells, cell{"get 128CL", min(n, scc.NumCores-1), func(c *rma.Core) float64 {
			var total float64
			for it := 0; it < iters; it++ {
				t0 := c.Now()
				c.GetMPBToMPB(0, 0, 0, 128)
				total += (c.Now() - t0).Microseconds()
			}
			return total / float64(iters)
		}})
	}
	for _, n := range Fig4Counts {
		cells = append(cells, cell{"put 1CL", min(n, scc.NumCores-1), func(c *rma.Core) float64 {
			var total float64
			for it := 0; it < iters; it++ {
				t0 := c.Now()
				// Each writer targets its own line of core 0's MPB, as
				// the paper notes parallel large puts to one location
				// would be meaningless; 1-CL puts to distinct lines.
				c.PutMPBToMPB(0, c.ID(), 0, 1)
				total += (c.Now() - t0).Microseconds()
			}
			return total / float64(iters)
		}})
	}

	tbl.Rows = ParallelMap(len(cells), func(i int) []string {
		cl := cells[i]
		chip := rma.NewChip(cfg)
		perCore := make([]float64, 0, cl.n)
		chip.Run(func(c *rma.Core) {
			// Cores 1..n participate; the paper's accessed core 0 idles.
			if c.ID() < 1 || c.ID() > cl.n {
				return
			}
			perCore = append(perCore, cl.body(c))
		})
		s := stats.Summarize(perCore)
		return []string{
			cl.op, fmt.Sprint(cl.n),
			fmt.Sprintf("%.3f", s.Mean),
			fmt.Sprintf("%.3f", s.Min),
			fmt.Sprintf("%.3f", s.Max),
			fmt.Sprintf("%.2f", s.Max/s.Min),
		}
	})
	return []*Table{tbl}, nil
}
