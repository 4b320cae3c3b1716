package harness

import (
	"testing"

	"repro/internal/algsel"
	"repro/internal/model"
	"repro/internal/scc"
)

// TestModelSimulationCrossValidation mirrors the paper's §6.3 comparison:
// the analytical model (which assumes distance-1 hops everywhere) should
// track the simulated measurements closely, with the simulation somewhat
// slower because real placements are farther than one hop. We accept
// sim/model within [0.9, 1.8] for OC-Bcast across sizes and fan-outs in
// the contention-safe regime.
func TestModelSimulationCrossValidation(t *testing.T) {
	cfg := scc.DefaultConfig()
	mdl := model.New(cfg.Params)
	bp := model.DefaultBcastParams()
	var cells []Cell
	for _, k := range []int{2, 7} {
		for _, lines := range []int{1, 16, 96, 192} {
			cells = append(cells, newCell(cfg, algsel.OpBcast, "ocbcast", k).sized(lines, 2))
		}
	}
	sims := Grid(cells)
	for i, c := range cells {
		pred := mdl.OCBcastLatency(bp, c.Lines, c.OC.K).Microseconds()
		ratio := sims[i] / pred
		if ratio < 0.9 || ratio > 1.8 {
			t.Errorf("k=%d m=%d: sim %.2fµs vs model %.2fµs (ratio %.2f outside [0.9,1.8])",
				c.OC.K, c.Lines, sims[i], pred, ratio)
		}
	}
}

// TestModelSimulationThroughputCrossValidation: measured peak throughput
// within 15% of Formula 15 for contention-safe k.
func TestModelSimulationThroughputCrossValidation(t *testing.T) {
	cfg := scc.DefaultConfig()
	mdl := model.New(cfg.Params)
	pred := model.LinesPerSecToMBps(mdl.OCBcastThroughput(model.DefaultBcastParams()))
	const lines = 8192
	meas := ThroughputMBps(lines, Grid([]Cell{newCell(cfg, algsel.OpBcast, "ocbcast", 7).sized(lines, 2)})[0])
	if meas < 0.85*pred || meas > 1.05*pred {
		t.Errorf("measured peak %.2f MB/s vs Formula 15's %.2f MB/s (outside [0.85,1.05])", meas, pred)
	}
}

// TestOCReduceModelCrossValidation: the internal/model closed form for
// OC-Reduce must be within 15% of the simulated contention-free latency
// (the new subsystem's acceptance bar), across fan-outs and sizes.
func TestOCReduceModelCrossValidation(t *testing.T) {
	cfg := scc.DefaultConfig()
	cfg.Contention.Enabled = false
	mdl := model.New(cfg.Params)
	rp := model.DefaultReduceParams()
	var cells []Cell
	for _, k := range []int{2, 3, 7} {
		for _, lines := range []int{1, 16, 96, 256, 1024} {
			cells = append(cells, newCell(cfg, algsel.OpReduce, "oc", k).sized(lines, 2))
		}
	}
	sims := Grid(cells)
	for i, c := range cells {
		pred := mdl.OCReduceLatency(rp, c.Lines, c.OC.K).Microseconds()
		ratio := sims[i] / pred
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("reduce k=%d m=%d: sim %.2fµs vs model %.2fµs (ratio %.2f outside [0.85,1.15])",
				c.OC.K, c.Lines, sims[i], pred, ratio)
		}
	}
}

// TestOCAllReduceModelCrossValidation: same bar for the fused allreduce.
func TestOCAllReduceModelCrossValidation(t *testing.T) {
	cfg := scc.DefaultConfig()
	cfg.Contention.Enabled = false
	mdl := model.New(cfg.Params)
	rp := model.DefaultReduceParams()
	var cells []Cell
	for _, k := range []int{2, 3, 7} {
		for _, lines := range []int{1, 96, 1024} {
			cells = append(cells, newCell(cfg, algsel.OpAllReduce, "oc", k).sized(lines, 2))
		}
	}
	sims := Grid(cells)
	for i, c := range cells {
		pred := mdl.OCAllReduceLatency(rp, c.Lines, c.OC.K).Microseconds()
		ratio := sims[i] / pred
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("allreduce k=%d m=%d: sim %.2fµs vs model %.2fµs (ratio %.2f outside [0.85,1.15])",
				c.OC.K, c.Lines, sims[i], pred, ratio)
		}
	}
}

// TestAllReduceOneSidedBeatsTwoSided pins the subsystem's headline: at 48
// cores and payloads >= 8 KiB, OC-AllReduce must beat the two-sided
// Reduce+Bcast composition for every measured fan-out.
func TestAllReduceOneSidedBeatsTwoSided(t *testing.T) {
	cfg := scc.DefaultConfig()
	sizes, ks := []int{256, 1024}, []int{2, 3, 7} // 8 KiB, 32 KiB
	lat := sweep(len(sizes), 1+len(ks), func(r, c int) Cell {
		if c == 0 {
			return newCell(cfg, algsel.OpAllReduce, "twosided", 0).sized(sizes[r], 2)
		}
		return newCell(cfg, algsel.OpAllReduce, "oc", ks[c-1]).sized(sizes[r], 2)
	})
	for r, row := range lat {
		for c, oc := range row[1:] {
			if oc >= row[0] {
				t.Errorf("m=%d k=%d: OC-AllReduce %.2fµs not faster than two-sided %.2fµs",
					sizes[r], ks[c], oc, row[0])
			}
		}
	}
}
