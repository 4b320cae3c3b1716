package harness

import (
	"math"
	"testing"

	"repro/internal/algsel"
	"repro/internal/scc"
)

// TestScaleCrossValidation is the fig-scale acceptance gate: the
// closed-form model with topology-derived hop terms must track the
// simulator within 15% for OC-Bcast and AllReduceOC on every sweep
// topology (48, 96, 192 and 384 cores), at one-chunk and multi-chunk
// message sizes.
func TestScaleCrossValidation(t *testing.T) {
	cfg := scc.DefaultConfig()
	for _, lines := range []int{96, 256} {
		for _, p := range ScaleSweep(cfg, lines, 2) {
			if math.Abs(p.ErrPct) > 15 {
				t.Errorf("%v %s %d CL: sim %.2f µs, model %.2f µs, err %+.2f%% exceeds 15%%",
					p.Topo, p.Op, p.Lines, p.SimUs, p.ModelUs, p.ErrPct)
			}
			if p.SimUs <= 0 || p.ModelUs <= 0 {
				t.Errorf("%v %s: non-positive latency (sim %v, model %v)", p.Topo, p.Op, p.SimUs, p.ModelUs)
			}
		}
	}
}

// TestMeshGoldenPoint pins one beyond-SCC simulated latency exactly, the
// same contract as the 6×4 golden points: future refactors may change
// wall-clock behaviour but never simulated time.
func TestMeshGoldenPoint(t *testing.T) {
	cfg := scc.DefaultConfig()
	cfg.Topo = scc.Mesh(8, 6)
	got := measure(newCell(cfg, algsel.OpBcast, "ocbcast", 7).sized(96, 2))
	want := []float64{193.696, 193.696}
	checkGolden(t, "mesh-8x6/oc-k7-96CL", got, want)
}
