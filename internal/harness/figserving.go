package harness

import (
	"fmt"

	ocbcast "repro"
	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/workload"
)

// fig-serving is the serving-runtime experiment: the chip as a
// long-running multi-tenant service. A fixed tenant mix — the fig-apps
// kernels as weighted tenants plus a Poisson telemetry stream — is
// served at increasing offered load under the paper-default stacks and
// under Options.Algorithm "auto", and the experiment reports throughput
// and tail latency per (mesh, load, mode) plus the saturation summary:
// the peak aggregate throughput each mode reaches. The acceptance gate
// (ocbench serving) is auto >= default saturation throughput on both
// the 48-core and 384-core meshes, and bit-identical stats across two
// runs of the same mix.

// The serving chip geometry: four MPB lanes so concurrent batches
// genuinely overlap, which needs a smaller chunk than the paper's 96 to
// fit the per-core MPB share.
const (
	servingLanes      = 4
	servingChunkLines = 16
)

// ServingLoads is the offered-load axis (ScaleGaps divisors) by effort
// tier. The kernels' recorded arrival spans are short relative to their
// service time, so the knee sits below load 0.1: the low points show
// the unsaturated regime, the top loads a real saturation plateau.
func ServingLoads(effort int) []float64 {
	if effort <= 1 {
		return []float64{0.05, 0.5, 4}
	}
	return []float64{0.02, 0.05, 0.2, 1, 4}
}

// ServingConfig is the runtime configuration of the fig-serving sweep:
// weighted fairness over four lanes with moderate batching.
func ServingConfig() serve.Config {
	return serve.Config{
		Policy:        serve.PolicyWeighted,
		QueueBound:    32,
		MaxBatch:      8,
		MaxBatchLines: 128,
		Lanes:         servingLanes,
	}
}

// ServingMix builds the canonical tenant mix for an n-core chip: the
// three fig-apps kernels as weighted tenants (SGD carries the highest
// weight, like a foreground training job) plus a low-weight seeded
// Poisson telemetry tenant of small rooted collectives.
func ServingMix(n int) []serve.Stream {
	weights := map[string]int{"sgd": 3, "stencil": 2, "shuffle": 2}
	var streams []serve.Stream
	for _, k := range workload.Kernels(n) {
		streams = append(streams, serve.FromTrace(k.Name, weights[k.Name], k.Trace))
	}
	streams = append(streams, serve.Synthetic(serve.SyntheticParams{
		Tenant: "telemetry", Weight: 1, Seed: 20260808, Count: 24, N: n,
		Ops:       []string{workload.OpBcast, workload.OpGather},
		Lines:     []int{1, 2, 4, 8},
		MeanGapUs: 120,
	}))
	return streams
}

// MeasureServe serves the canonical mix at one offered load on a fresh
// public System and returns the run's stats. algorithm is
// Options.Algorithm ("", "auto", or a named override); the run goes
// through the same public path an application would use — New,
// System.Serve — so it exercises registry resolution, the decision
// table, batching and the progress engine's lanes end to end.
func MeasureServe(cfg scc.Config, topo scc.Topology, load float64, algorithm string) serve.Result {
	sys := newSystem(cfg, topo, ocbcast.Options{
		Algorithm:  algorithm,
		Channels:   servingLanes,
		ChunkLines: servingChunkLines,
	})
	streams := ServingMix(sys.N())
	for i := range streams {
		streams[i] = serve.ScaleGaps(streams[i], load)
	}
	res, err := sys.Serve(ServingConfig(), streams)
	if err != nil {
		panic(fmt.Sprintf("harness: serving run failed: %v", err))
	}
	return res
}

// ServeCell is one cell of the serving sweep: one mesh at one offered
// load under one algorithm-resolution mode. Its json form is the
// committed schema of BENCH_simperf.json's serving.cells.
type ServeCell struct {
	Mesh  string  `json:"mesh"`
	Cores int     `json:"cores"`
	Load  float64 `json:"load"`
	// Mode names Options.Algorithm: "default" (the paper defaults, "")
	// or "auto".
	Mode string `json:"mode"`
	// ThroughputRps is the aggregate completed-requests-per-second;
	// P50Us/P99Us the aggregate completion-latency percentiles.
	ThroughputRps float64 `json:"throughput_rps"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"`
}

// ServeSaturation is the per-mesh summary the acceptance gate reads
// (BENCH_simperf.json's serving.meshes): each mode's saturation — peak
// over the load axis — aggregate throughput, and Ratio = AutoRps /
// DefaultRps.
type ServeSaturation struct {
	Mesh       string  `json:"mesh"`
	Cores      int     `json:"cores"`
	DefaultRps float64 `json:"default_sat_rps"`
	AutoRps    float64 `json:"auto_sat_rps"`
	Ratio      float64 `json:"ratio"`
}

// ServingSweep serves the canonical mix over every (mesh, load, mode)
// cell of the effort tier. Cells are sharded across ParallelMap
// workers; like every harness sweep, the simulated values are
// independent of the sharding.
func ServingSweep(cfg scc.Config, effort int) []ServeCell {
	type job struct {
		topo scc.Topology
		load float64
		mode string
	}
	var jobs []job
	for _, topo := range WorkloadMeshes(effort) {
		for _, load := range ServingLoads(effort) {
			for _, mode := range []string{"", "auto"} {
				jobs = append(jobs, job{topo, load, mode})
			}
		}
	}
	results := ParallelMap(len(jobs), func(i int) serve.Result {
		j := jobs[i]
		return MeasureServe(cfg, j.topo, j.load, j.mode)
	})
	cells := make([]ServeCell, len(jobs))
	for i, j := range jobs {
		r := results[i]
		mode := j.mode
		if mode == "" {
			mode = "default"
		}
		cells[i] = ServeCell{
			Mesh: meshName(j.topo), Cores: j.topo.NumCores(), Load: j.load, Mode: mode,
			ThroughputRps: r.ThroughputRps, P50Us: r.P50Us, P99Us: r.P99Us,
			Completed: r.Completed, Rejected: r.Rejected,
		}
	}
	return cells
}

// Saturation reduces sweep cells to the per-mesh acceptance summary.
func Saturation(cells []ServeCell) []ServeSaturation {
	var out []ServeSaturation
	idx := map[string]int{}
	for _, c := range cells {
		i, ok := idx[c.Mesh]
		if !ok {
			i = len(out)
			idx[c.Mesh] = i
			out = append(out, ServeSaturation{Mesh: c.Mesh, Cores: c.Cores})
		}
		if c.Mode == "auto" {
			if c.ThroughputRps > out[i].AutoRps {
				out[i].AutoRps = c.ThroughputRps
			}
		} else if c.ThroughputRps > out[i].DefaultRps {
			out[i].DefaultRps = c.ThroughputRps
		}
	}
	for i := range out {
		if out[i].DefaultRps > 0 {
			out[i].Ratio = out[i].AutoRps / out[i].DefaultRps
		}
	}
	return out
}

// FigServing renders the serving sweep: the load/latency cells and the
// saturation summary the gate reads.
func FigServing(cfg scc.Config, effort int) ([]*Table, error) {
	cells := ServingSweep(cfg, effort)
	return []*Table{ServingTable(cells), SaturationTable(Saturation(cells))}, nil
}

// ServingTable renders already-computed sweep cells (shared by the
// fig-serving experiment and the ocbench serving subcommand).
func ServingTable(cells []ServeCell) *Table {
	tbl := &Table{
		Title:   "fig-serving — multi-tenant serving: offered load vs throughput and tail latency",
		Columns: []string{"mesh", "cores", "load", "mode", "throughput req/s", "p50 µs", "p99 µs", "completed", "rejected"},
		Notes: []string{
			"The fig-apps kernels as weighted tenants (sgd 3, stencil 2, shuffle 2) plus a Poisson",
			"telemetry tenant (weight 1), served under weighted fairness over 4 MPB lanes; load",
			"scales arrival rates (ScaleGaps). mode is Options.Algorithm: paper defaults vs auto.",
		},
	}
	for _, c := range cells {
		tbl.AddRow(c.Mesh, c.Cores, fmt.Sprintf("%gx", c.Load), c.Mode,
			fmt.Sprintf("%.0f", c.ThroughputRps), c.P50Us, c.P99Us, c.Completed, c.Rejected)
	}
	return tbl
}

// SaturationTable renders the per-mesh saturation summary.
func SaturationTable(sats []ServeSaturation) *Table {
	tbl := &Table{
		Title:   "fig-serving — saturation throughput: auto vs paper-default selection",
		Columns: []string{"mesh", "cores", "default req/s", "auto req/s", "ratio"},
		Notes: []string{
			"Peak aggregate throughput over the load axis per algorithm-resolution mode.",
			"Acceptance: auto >= default on every mesh (ocbench serving gates the ratio).",
		},
	}
	for _, s := range sats {
		tbl.AddRow(s.Mesh, s.Cores, fmt.Sprintf("%.0f", s.DefaultRps), fmt.Sprintf("%.0f", s.AutoRps),
			fmt.Sprintf("%.3fx", s.Ratio))
	}
	return tbl
}

// ServeChip serves a mix on a pooled chip with the compat-default
// algorithm stacks, bypassing public System construction — the
// steady-state path the allocation-budget regression pins and the
// harness determinism tests rerun. The runtime configuration must name
// its lanes explicitly (Lanes >= 1).
func ServeChip(cfg scc.Config, n int, scfg serve.Config, streams []serve.Stream) serve.Result {
	return serveChip(cfg, n, scfg, streams, nil)
}

// serveChip is ServeChip reading the chip's work into w (when non-nil).
func serveChip(cfg scc.Config, n int, scfg serve.Config, streams []serve.Stream, w *chipWork) serve.Result {
	if scfg.Lanes < 1 {
		panic("harness: ServeChip needs an explicit Lanes count")
	}
	if err := scfg.Validate(); err != nil {
		panic(fmt.Sprintf("harness: ServeChip config: %v", err))
	}
	if err := serve.ValidateStreams(streams, n); err != nil {
		panic(fmt.Sprintf("harness: ServeChip streams: %v", err))
	}
	l := serve.LayoutFor(scfg, streams, n)
	base := occore.DefaultConfig()
	if scfg.Lanes > 1 {
		base.Channels = scfg.Lanes
		base.BufLines = servingChunkLines
	}
	board := serve.NewBoard(streams)
	var rep *serve.Sched
	onPooledChip(cfg, n, base, w, func(e *algsel.Env) {
		s := serve.Run(algsel.Server{E: e, Ctrl: l.CtrlAddr}, scfg, streams, l, board, nil)
		if e.Core().ID() == 0 {
			rep = s
		}
	})
	return serve.Collect(rep, board)
}
