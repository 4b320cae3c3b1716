package harness

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/model"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// fig-crossover validates the algorithm registry's model-driven
// auto-selection against ground truth: for every (mesh, operation,
// message size) cell it simulates each modeled algorithm at its tuned
// (K, chunk), asks the plan what "auto" would pick, and reports the
// regret — how much slower auto's pick is than the per-cell best. The
// acceptance target is ≤ 5% regret everywhere: near a crossover the
// contenders are close by definition, so the model only has to rank
// correctly where the gap is wide.

// MeasureAlg runs `reps` barrier-separated repetitions of one registered
// algorithm (at one tunable choice) on n cores and returns per-repetition
// latencies in microseconds, §6.1-style: each repetition works on a fresh
// payload region, and latency runs from the first core's call to the
// last core's return.
func MeasureAlg(cfg scc.Config, a *algsel.Algorithm, ch algsel.Choice, n, lines, reps int) []float64 {
	if reps <= 0 {
		reps = 3
	}
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)

	// A repetition region holds the op's full working set: n blocks for
	// the rooted/allgather layouts plus one block of slack.
	msgBytes := lines * scc.CacheLine
	regionBytes := (n + 1) * msgBytes
	for c := 0; c < n; c++ {
		payload := make([]byte, reps*regionBytes)
		for i := range payload {
			payload[i] = byte(i*7 + c*13 + 5)
		}
		chip.Private(c).Write(0, payload)
	}
	scratchBase := reps * regionBytes

	starts := make([][]sim.Time, reps)
	returns := make([][]sim.Time, reps)
	for it := range returns {
		starts[it] = make([]sim.Time, n)
		returns[it] = make([]sim.Time, n)
	}

	algsel.OnChip(chip, occore.DefaultConfig(), func(e *algsel.Env) {
		c := e.Core()
		for it := 0; it < reps; it++ {
			e.Port.Barrier()
			starts[it][c.ID()] = c.Now()
			e.Exec(a, ch, algsel.Args{
				Root:    0,
				Addr:    it * regionBytes,
				Scratch: scratchBase,
				Lines:   lines,
				Reduce:  collective.SumInt64,
			})
			returns[it][c.ID()] = c.Now()
		}
	})

	out := make([]float64, reps)
	for it := 0; it < reps; it++ {
		out[it] = spanUs(starts[it], returns[it])
	}
	return out
}

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

// CrossoverSweep simulates every (mesh, op, size) cell; cells are
// sharded across ParallelMap workers and, like every harness sweep, the
// simulated values are independent of the sharding.
func CrossoverSweep(cfg scc.Config, effort int) []CrossoverPoint {
	type cell struct {
		topo  scc.Topology
		op    algsel.Op
		lines int
	}
	var cells []cell
	for _, topo := range CrossoverMeshes(effort) {
		for _, op := range CrossoverOps() {
			for _, lines := range CrossoverSizes(effort) {
				cells = append(cells, cell{topo, op, lines})
			}
		}
	}
	base := occore.DefaultConfig()
	mdl := model.New(cfg.Params)
	reps := 1
	if effort > 1 {
		reps = 2
	}
	return ParallelMap(len(cells), func(i int) CrossoverPoint {
		c := cells[i]
		cfg2 := cfg
		cfg2.Topo = c.topo
		p := c.topo.NumCores()
		plan := algsel.TuneCached(cfg.Params, c.topo, p, base)
		auto, ok := plan.Choose(c.op, c.lines)
		if !ok {
			// CrossoverOps only lists operations with modeled algorithms,
			// so a missing decision table is a wiring bug, not data.
			panic(fmt.Sprintf("harness: no decision table for swept op %s", c.op))
		}
		pt := CrossoverPoint{Mesh: meshName(c.topo), Cores: p, Op: c.op, Lines: c.lines, Auto: auto.String()}
		// Every modeled algorithm is simulated at its tuned choice, in
		// registry (name) order.
		for _, a := range algsel.For(c.op) {
			ch, ok := algsel.BestChoiceFor(mdl, c.topo, p, base, a, c.lines)
			if !ok {
				continue
			}
			simUs := mean(MeasureAlg(cfg2, a, ch, p, c.lines, reps))
			if pt.BestUs == 0 || simUs < pt.BestUs {
				pt.Best, pt.BestUs = ch.String(), simUs
			}
			if ch == auto {
				pt.AutoUs = simUs
			}
		}
		if pt.AutoUs == 0 {
			// The plan's band stores the winner at band granularity, so
			// its (K, chunk) can differ from the per-algorithm best at
			// this exact size. Simulate the auto pick itself — regret
			// must price what auto would actually run, never default to
			// a silently passing zero.
			a, found := algsel.Lookup(c.op, auto.Alg)
			if !found {
				panic(fmt.Sprintf("harness: plan picked unregistered algorithm %q for %s", auto.Alg, c.op))
			}
			pt.AutoUs = mean(MeasureAlg(cfg2, a, auto, p, c.lines, reps))
		}
		pt.RegretPct = 100 * (pt.AutoUs/pt.BestUs - 1)
		return pt
	})
}

// FigCrossover renders the crossover sweep: per cell, every algorithm's
// simulated latency, the auto pick and its regret vs the per-cell best.
func FigCrossover(cfg scc.Config, effort int) *Table {
	if effort < 1 {
		effort = 1
	}
	return CrossoverTable(CrossoverSweep(cfg, effort))
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
