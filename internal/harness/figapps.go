package harness

import (
	"fmt"

	ocbcast "repro"
	"repro/internal/algsel"
	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/mem"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig-apps is the whole-application validation of auto-selection: the
// synthetic kernels (internal/workload — data-parallel SGD, stencil halo
// exchange, MapReduce shuffle) are replayed through the public
// System.Replay under the paper-default algorithm stacks and under
// Options.Algorithm "auto", and the experiment reports the whole-app
// speedup per (kernel, mesh). Where fig-crossover bounds per-call regret,
// fig-apps answers the question that matters to a program: does the tuner
// ever make an application slower? The acceptance gate (ocbench apps) is
// auto >= paper-default on every kernel, within noise.

// AppsMeshes bounds the sweep by effort: the quick tier (CI smoke) runs
// the paper's 48-core chip, the full tier adds the 384-core mesh the
// acceptance criteria name.
func AppsMeshes(effort int) []scc.Topology {
	if effort <= 1 {
		return []scc.Topology{scc.SCC()}
	}
	return []scc.Topology{scc.SCC(), scc.Mesh(16, 12)}
}

// AppPoint is one cell of the application sweep: one kernel on one mesh,
// replayed under both algorithm-resolution modes. Its json form is the
// committed schema of BENCH_simperf.json's apps.cells.
type AppPoint struct {
	Kernel  string `json:"kernel"`
	Mesh    string `json:"mesh"`
	Cores   int    `json:"cores"`
	Records int    `json:"records"`
	// DefaultUs and AutoUs are the whole-app makespans under
	// Options.Algorithm "" and "auto"; Speedup = DefaultUs / AutoUs.
	DefaultUs float64 `json:"default_us"`
	AutoUs    float64 `json:"auto_us"`
	Speedup   float64 `json:"speedup"`
}

// MeasureApp replays one kernel trace on a fresh public System and
// returns the whole-application makespan in microseconds. algorithm is
// Options.Algorithm ("", "auto", or a named override). The replay runs
// through the same public path an application would use — New, staged
// private memory, System.Replay — so it exercises registry resolution,
// the decision table and the progress engine end to end. (The public
// construction path always models the L1 cache; cfg's contention flag
// and params are honored.)
func MeasureApp(cfg scc.Config, topo scc.Topology, t *workload.Trace, algorithm string) float64 {
	opts := ocbcast.Options{
		Algorithm:         algorithm,
		DisableContention: !cfg.Contention.Enabled,
		Params:            &cfg.Params,
	}
	if topo.W != scc.SCC().W || topo.H != scc.SCC().H {
		opts.MeshWidth, opts.MeshHeight = topo.W, topo.H
	}
	sys := ocbcast.New(opts)
	st, err := sys.Replay(t)
	if err != nil {
		panic(fmt.Sprintf("harness: kernel replay failed: %v", err))
	}
	return st.MakespanUs
}

// AppsSweep replays every fig-apps kernel on every mesh of the effort
// tier under paper-default and "auto" selection. Cells are sharded across
// ParallelMap workers; like every harness sweep, the simulated values are
// independent of the sharding.
func AppsSweep(cfg scc.Config, effort int) []AppPoint {
	type cell struct {
		topo   scc.Topology
		kernel workload.Kernel
		mode   string
	}
	var cells []cell
	for _, topo := range AppsMeshes(effort) {
		for _, k := range workload.Kernels(topo.NumCores()) {
			for _, mode := range []string{"", "auto"} {
				cells = append(cells, cell{topo, k, mode})
			}
		}
	}
	lat := ParallelMap(len(cells), func(i int) float64 {
		c := cells[i]
		return MeasureApp(cfg, c.topo, c.kernel.Trace, c.mode)
	})
	var out []AppPoint
	for i := 0; i < len(cells); i += 2 {
		c := cells[i]
		p := AppPoint{
			Kernel:    c.kernel.Name,
			Mesh:      meshName(c.topo),
			Cores:     c.topo.NumCores(),
			Records:   len(c.kernel.Trace.Records),
			DefaultUs: lat[i],
			AutoUs:    lat[i+1],
		}
		p.Speedup = p.DefaultUs / p.AutoUs
		out = append(out, p)
	}
	return out
}

// FigApps renders the application sweep.
func FigApps(cfg scc.Config, effort int) *Table {
	if effort < 1 {
		effort = 1
	}
	return AppsTable(AppsSweep(cfg, effort))
}

// AppsTable renders already-computed application points (shared by the
// fig-apps experiment and the ocbench apps subcommand).
func AppsTable(pts []AppPoint) *Table {
	tbl := &Table{
		Title:   "fig-apps — whole-application replay: paper-default vs auto-selected algorithms",
		Columns: []string{"kernel", "mesh", "cores", "records", "default µs", "auto µs", "speedup"},
		Notes: []string{
			"Each kernel trace (internal/workload) replayed via System.Replay: blocking records",
			"run the public collectives, overlapped records the non-blocking progress engine.",
			"Acceptance: auto never slower than the paper-default stacks (ocbench apps gates it).",
		},
	}
	for _, p := range pts {
		tbl.AddRow(p.Kernel, p.Mesh, p.Cores, p.Records,
			p.DefaultUs, p.AutoUs, fmt.Sprintf("%.3fx", p.Speedup))
	}
	return tbl
}

// ReplayChip replays a trace on a pooled chip with the compat-default
// algorithm stacks, bypassing public System construction: the
// steady-state path the allocation-budget regression pins (a warmed
// replay must not reintroduce per-record garbage) and the golden
// determinism tests rerun. Returns the whole-app makespan in µs.
func ReplayChip(cfg scc.Config, n int, t *workload.Trace) float64 {
	us, _ := replayChip(cfg, n, t)
	return us
}

// replayChip is ReplayChip that also reports the work the MPBs'
// pending-write indexes did, read before the chip goes back to the pool.
func replayChip(cfg scc.Config, n int, t *workload.Trace) (float64, mem.PendingStats) {
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)
	l := workload.LayoutFor(t, n)
	base := occore.DefaultConfig()
	starts := make([]float64, n)
	ends := make([]float64, n)
	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		col := occoll.New(c, port, base)
		env := algsel.NewEnv(collective.NewComm(port), base, col, occore.NewBroadcaster(c, base))
		r := envRunner{env: env, col: col}
		res := workload.Replay(&r, t, l, workload.ReplayOptions{})
		col.Finish()
		starts[c.ID()], ends[c.ID()] = res.StartUs, res.FinishUs
	})
	first, last := starts[0], ends[0]
	for id := 1; id < n; id++ {
		if starts[id] < first {
			first = starts[id]
		}
		if ends[id] > last {
			last = ends[id]
		}
	}
	return last - first, chip.PendingStats()
}

// envRunner drives a replay over an algsel environment with the
// compat-default algorithms — the same mapping the public adapter uses
// under Options.Algorithm "": bcast→ocbcast, reduce/scatter/gather/
// allgather→twosided, allreduce→hybrid, and the one-sided "oc" family
// for the non-blocking path. Algorithm pointers are resolved once at
// construction so the record loop stays allocation-free.
type envRunner struct {
	env *algsel.Env
	col *occoll.Collectives
	blk [6]*algsel.Algorithm
	nbk [6]*algsel.Algorithm
}

// opIndex maps a record op to a fixed slot of the resolved-algorithm
// arrays.
func opIndex(op string) int {
	switch op {
	case workload.OpBcast:
		return 0
	case workload.OpReduce:
		return 1
	case workload.OpAllReduce:
		return 2
	case workload.OpScatter:
		return 3
	case workload.OpGather:
		return 4
	case workload.OpAllGather:
		return 5
	}
	panic(fmt.Sprintf("harness: unknown replay op %q", op))
}

// compatDefaults mirrors the public methods' def arguments in run()/
// issue() calls (ocbcast.go, collectives.go).
var compatDefaults = map[string]string{
	workload.OpBcast:     "ocbcast",
	workload.OpReduce:    "twosided",
	workload.OpAllReduce: "hybrid",
	workload.OpScatter:   "twosided",
	workload.OpGather:    "twosided",
	workload.OpAllGather: "twosided",
}

func (r *envRunner) lookup(op string, nonblocking bool) *algsel.Algorithm {
	idx := opIndex(op)
	cache := &r.blk
	name := compatDefaults[op]
	if nonblocking {
		cache, name = &r.nbk, "oc"
	}
	if cache[idx] == nil {
		a, ok := algsel.Lookup(algsel.Op(op), name)
		if !ok {
			panic(fmt.Sprintf("harness: no registered algorithm %s/%s", op, name))
		}
		cache[idx] = a
	}
	return cache[idx]
}

func (r *envRunner) args(rec workload.Record, addr, scratch int) algsel.Args {
	return algsel.Args{
		Root: rec.Root, Addr: addr, Scratch: scratch,
		Lines: rec.Lines, Reduce: collective.SumInt64,
	}
}

func (r *envRunner) Compute(us float64) { r.env.Core.Compute(sim.Micros(us)) }
func (r *envRunner) Barrier()           { r.env.Port.Barrier() }
func (r *envRunner) NowUs() float64     { return r.env.Core.Now().Microseconds() }

func (r *envRunner) Run(rec workload.Record, addr, scratch int) {
	r.lookup(rec.Op, false).Run(r.env, algsel.Choice{Alg: compatDefaults[rec.Op]}, r.args(rec, addr, scratch))
}

func (r *envRunner) Issue(rec workload.Record, addr, scratch int) workload.Pending {
	return r.lookup(rec.Op, true).Issue(r.env, algsel.Choice{Alg: "oc"}, r.args(rec, addr, scratch))
}
