package harness

import (
	"fmt"

	ocbcast "repro"
	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/mem"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/trace"
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
func FigApps(cfg scc.Config, effort int) ([]*Table, error) {
	return []*Table{AppsTable(AppsSweep(cfg, effort))}, nil
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
	first, last := workload.Bounds(replayChip(cfg, n, t, nil))
	return last - first
}

// replayChip is ReplayChip's run: each core's result, with what the chip
// did read into w (when non-nil) before it goes back to the pool.
func replayChip(cfg scc.Config, n int, t *workload.Trace, w *chipWork) []workload.Result {
	l := workload.LayoutFor(t, n)
	res := make([]workload.Result, n)
	onPooledChip(cfg, n, occore.DefaultConfig(), w, func(e *algsel.Env) {
		res[e.Core().ID()] = workload.Replay(algsel.Replayer{E: e}, t, l, workload.ReplayOptions{})
	})
	return res
}

// chipWork is what a pooled run did: the summed data-movement counters
// and the work of the MPBs' pending-write indexes.
type chipWork struct {
	counters trace.CoreCounters
	pending  mem.PendingStats
}

// onPooledChip runs body on every core of a pooled n-core chip over the
// core's stack (algsel.OnChip), reading the chip's work into w (when
// non-nil) before the chip goes back to the pool.
func onPooledChip(cfg scc.Config, n int, base occore.Config, w *chipWork, body func(e *algsel.Env)) {
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)
	algsel.OnChip(chip, base, body)
	if w != nil {
		*w = chipWork{counters: trace.Sum(chip.Counter), pending: chip.PendingStats()}
	}
}
