package harness

import (
	"fmt"

	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/model"
	"repro/internal/scc"
)

// fig-crossover validates the algorithm registry's model-driven
// auto-selection against ground truth: for every (mesh, operation,
// message size) cell it simulates each modeled algorithm at its tuned
// (K, chunk), asks the plan what "auto" would pick, and reports the
// regret — how much slower auto's pick is than the per-cell best. The
// acceptance target is ≤ 5% regret everywhere: near a crossover the
// contenders are close by definition, so the model only has to rank
// correctly where the gap is wide.

// CrossoverPoint is one cell of the crossover sweep. Its json form is
// the committed schema of BENCH_simperf.json's crossover.cells.
type CrossoverPoint struct {
	Mesh  string    `json:"mesh"`
	Cores int       `json:"cores"`
	Op    algsel.Op `json:"op"`
	Lines int       `json:"lines"`
	// Auto is the plan's pick and Best the cell's fastest algorithm, both
	// at their tuned choice (algsel.Choice.String); AutoUs and BestUs
	// their simulated latencies; RegretPct = 100·(AutoUs/BestUs − 1).
	Auto      string  `json:"auto"`
	AutoUs    float64 `json:"auto_us"`
	Best      string  `json:"best"`
	BestUs    float64 `json:"best_us"`
	RegretPct float64 `json:"regret_pct"`
}

// CrossoverOps are the operations the sweep covers: the ones with at
// least two modeled algorithms, so auto-selection has a real decision.
func CrossoverOps() []algsel.Op {
	return []algsel.Op{algsel.OpBcast, algsel.OpAllReduce, algsel.OpAllGather}
}

// CrossoverMeshes and CrossoverSizes bound the sweep by effort: the
// quick tier keeps CI smoke cheap, the full tier is the 48–384-core
// sweep recorded in BENCH_simperf.json.
func CrossoverMeshes(effort int) []scc.Topology {
	meshes := ScaleMeshes()
	if effort <= 1 {
		return meshes[:2]
	}
	return meshes
}

// CrossoverSizes lists the swept message sizes in cache lines.
func CrossoverSizes(effort int) []int {
	if effort <= 1 {
		return []int{1, 16, 96}
	}
	return []int{1, 4, 16, 64, 256}
}

// CrossoverSweep simulates every (mesh, op, size) point, sharded across
// ParallelMap workers. A point measures its algorithms one after another,
// so a worker holds one chip at a time and the sweep's heaviest cells —
// a 384-core allgather of 256-line blocks writes about 2.4 GB — never run
// side by side.
func CrossoverSweep(cfg scc.Config, effort int) []CrossoverPoint {
	type point struct {
		topo  scc.Topology
		op    algsel.Op
		lines int
	}
	var pts []point
	for _, topo := range CrossoverMeshes(effort) {
		for _, op := range CrossoverOps() {
			for _, lines := range CrossoverSizes(effort) {
				pts = append(pts, point{topo, op, lines})
			}
		}
	}
	base := occore.DefaultConfig()
	mdl := model.New(cfg.Params)
	reps := 1
	if effort > 1 {
		reps = 2
	}
	return ParallelMap(len(pts), func(i int) CrossoverPoint {
		c := pts[i]
		p := c.topo.NumCores()
		plan := algsel.TuneCached(cfg.Params, c.topo, p, base)
		auto, ok := plan.Choose(c.op, c.lines)
		if !ok {
			// CrossoverOps only lists operations with modeled algorithms,
			// so a missing decision table is a wiring bug, not data.
			panic(fmt.Sprintf("harness: no decision table for swept op %s", c.op))
		}
		pt := CrossoverPoint{Mesh: meshName(c.topo), Cores: p, Op: c.op, Lines: c.lines, Auto: auto.String()}
		simUs := func(ch algsel.Choice) float64 {
			cell := Cell{Cfg: cfg, Op: c.op, Choice: ch, OC: base, Lines: c.lines, Reps: reps}
			cell.Cfg.Topo = c.topo
			return mean(measure(cell))
		}
		// Every modeled algorithm is simulated at its tuned choice, in
		// registry (name) order.
		for _, a := range algsel.For(c.op) {
			ch, ok := algsel.BestChoiceFor(mdl, c.topo, p, base, a, c.lines)
			if !ok {
				continue
			}
			us := simUs(ch)
			if pt.BestUs == 0 || us < pt.BestUs {
				pt.Best, pt.BestUs = ch.String(), us
			}
			if ch == auto {
				pt.AutoUs = us
			}
		}
		if pt.AutoUs == 0 {
			// The plan's band stores the winner at band granularity, so
			// its (K, chunk) can differ from the per-algorithm best at
			// this exact size. Simulate the auto pick itself — regret
			// must price what auto would actually run, never default to
			// a silently passing zero.
			pt.AutoUs = simUs(auto)
		}
		pt.RegretPct = 100 * (pt.AutoUs/pt.BestUs - 1)
		return pt
	})
}

// FigCrossover renders the crossover sweep: per cell, every algorithm's
// simulated latency, the auto pick and its regret vs the per-cell best.
func FigCrossover(cfg scc.Config, effort int) ([]*Table, error) {
	return []*Table{CrossoverTable(CrossoverSweep(cfg, effort))}, nil
}

// CrossoverTable renders already-computed crossover points (shared by
// the fig-crossover experiment and the ocbench tune subcommand).
func CrossoverTable(pts []CrossoverPoint) *Table {
	tbl := &Table{
		Title:   "fig-crossover — auto-selection vs best algorithm per (mesh, op, size)",
		Columns: []string{"mesh", "cores", "op", "CL", "auto pick", "auto µs", "best", "best µs", "regret%"},
		Notes: []string{
			"Every modeled algorithm simulated at its tuned (K, chunk); 'auto' is the",
			"decision-table pick (Options.Algorithm: \"auto\"), 'best' the cell's fastest.",
			"Acceptance: regret <= 5% everywhere (ocbench tune enforces it).",
		},
	}
	for _, p := range pts {
		tbl.AddRow(p.Mesh, p.Cores, string(p.Op), p.Lines,
			p.Auto, p.AutoUs, p.Best, p.BestUs, fmt.Sprintf("%+.2f", p.RegretPct))
	}
	return tbl
}
