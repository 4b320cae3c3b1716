package harness

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/scc"
	"repro/internal/workload"
)

// ScaleMeshes is the fig-scale topology sweep: the real 48-core SCC and
// progressively larger meshes of the same tiles — 96, 192 and 384 cores.
// Every layer of the stack (routing, MPB addressing, tree builders,
// model hop terms) is parameterized by the topology, so the same
// collectives run unmodified at every size.
func ScaleMeshes() []scc.Topology {
	return []scc.Topology{
		scc.SCC(),        //  48 cores, the paper's chip
		scc.Mesh(8, 6),   //  96 cores
		scc.Mesh(12, 8),  // 192 cores
		scc.Mesh(16, 12), // 384 cores
	}
}

// meshName is the "WxH" label of a topology in tables and in
// BENCH_simperf.json.
func meshName(t scc.Topology) string { return fmt.Sprintf("%dx%d", t.W, t.H) }

// ScalePoint is one cell of the scaling sweep: a collective on one
// topology, simulated and predicted by the closed-form model with
// topology-derived hop terms.
type ScalePoint struct {
	Topo    scc.Topology
	Op      string // "bcast-oc" or "allreduce-oc"
	Lines   int
	K       int
	SimUs   float64 // simulated latency, µs
	ModelUs float64 // closed-form prediction, µs
	ErrPct  float64 // 100·(model−sim)/sim
}

// ScaleSweep cross-validates the analytical model against the simulator
// for OC-Bcast and AllReduceOC on every ScaleMeshes topology, at fan-out
// k = 7 and a message of `lines` cache lines, in one grid.
func ScaleSweep(cfg scc.Config, lines int) []ScalePoint {
	const k = 7
	var cells []Cell
	for _, m := range ScaleMeshes() {
		cfg.Topo = m
		cells = append(cells, newCell(cfg, workload.OpBcast, "ocbcast", k).sized(lines),
			newCell(cfg, workload.OpAllReduce, "oc", k).sized(lines))
	}
	mdl := model.New(cfg.Params)
	var pts []ScalePoint
	for i, sim := range Grid(cells) {
		topo := cells[i].Cfg.Topo
		n := topo.NumCores()
		pt := ScalePoint{Topo: topo, Op: "bcast-oc", Lines: lines, K: k, SimUs: sim,
			ModelUs: mdl.OCBcastLatency(model.BcastParamsFor(topo, n, k), lines, k).Microseconds()}
		if cells[i].Op == workload.OpAllReduce {
			pt.Op = "allreduce-oc"
			pt.ModelUs = mdl.OCAllReduceLatency(model.ReduceParamsFor(topo, n, k), lines, k).Microseconds()
		}
		pt.ErrPct = 100 * (pt.ModelUs - pt.SimUs) / pt.SimUs
		pts = append(pts, pt)
	}
	return pts
}

// FigScale renders the topology-scaling experiment: simulated vs modeled
// latency for OC-Bcast and AllReduceOC from 48 to 384 cores. It is the
// scale-out counterpart of Figure 8a: the paper validates the model on
// the one real 48-core chip; this table shows the same model, with hop
// terms derived from each topology, tracking the simulator across 8× the
// paper's core count.
func FigScale(cfg scc.Config, effort int) ([]*Table, error) {
	const lines = 96 // one full Moc chunk
	tbl := &Table{
		Title:   "fig-scale — model vs simulation across mesh sizes (µs)",
		Columns: []string{"mesh", "cores", "op", "CL", "sim", "model", "err%"},
		Notes: []string{
			"OC-Bcast and AllReduceOC at k=7; model hop terms (DMpb, DMem)",
			"derived from each topology's k-ary tree and controller placement.",
			"Cross-validation target: |err| <= 15% at every size.",
		},
	}
	for _, p := range ScaleSweep(cfg, lines) {
		tbl.AddRow(meshName(p.Topo), p.Topo.NumCores(), p.Op, p.Lines, p.SimUs, p.ModelUs, fmt.Sprintf("%+.2f", p.ErrPct))
	}
	return []*Table{tbl}, nil
}
