package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/model"
	"repro/internal/scc"
	"repro/internal/workload"
)

// Cross-validation of the registry algorithms' closed-form latencies
// (internal/model algorithms.go) against the simulator, in the style of
// crossval_test.go: the tuner only needs the models to rank correctly,
// but each curve must also track its simulation within a stated bound
// or the crossover placement drifts.

// algPoint identifies one cross-validation cell.
type algPoint struct {
	op     string
	name   string
	lines  int
	tolPct float64
}

func TestAlgorithmModelsTrackSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweep skipped with -short")
	}
	cfg := scc.DefaultConfig()
	topo := cfg.Topology()
	p := scc.NumCores
	mdl := model.New(cfg.Params)
	base := occore.DefaultConfig()

	// Tolerances per family: the two-sided formulas are tight (the
	// simulator charges their analytic costs almost directly), the
	// pipelined one-sided ones carry fill/drain approximations.
	pts := []algPoint{
		{workload.OpAllReduce, "twosided", 32, 10},
		{workload.OpAllReduce, "twosided", 256, 10},
		{workload.OpAllReduce, "hybrid", 32, 10},
		{workload.OpAllReduce, "hybrid", 256, 12},
		{workload.OpAllReduce, "rabenseifner", 32, 15},
		{workload.OpAllReduce, "rabenseifner", 256, 15},
		{workload.OpAllReduce, "oc", 32, 15},
		{workload.OpAllReduce, "oc", 256, 15},
		{workload.OpAllGather, "ring", 16, 20},
		{workload.OpAllGather, "ring", 64, 20},
		{workload.OpAllGather, "oc", 16, 20},
		{workload.OpAllGather, "twosided", 16, 15},
		{workload.OpBcast, "oc", 1, 20},
		{workload.OpBcast, "oc", 96, 15},
		{workload.OpBcast, "binomial", 96, 15},
	}
	for _, pt := range pts {
		alg, ok := algsel.Lookup(pt.op, pt.name)
		if !ok || alg.Model == nil {
			t.Fatalf("%s/%s not registered with a model", pt.op, pt.name)
		}
		ch, ok := algsel.BestChoiceFor(mdl, topo, p, base, alg, pt.lines)
		if !ok {
			t.Fatalf("%s/%s: no tuned choice", pt.op, pt.name)
		}
		sim := measure(Cell{Cfg: cfg, Op: pt.op, Choice: ch, OC: base, Lines: pt.lines})
		mod := alg.Model(mdl, topo, p, pt.lines, ch).Microseconds()
		errPct := 100 * (mod - sim) / sim
		if math.Abs(errPct) > pt.tolPct {
			t.Errorf("%s/%s %s at %d CL: sim %.2f µs, model %.2f µs (%+.1f%%, tol %.0f%%)",
				pt.op, pt.name, ch, pt.lines, sim, mod, errPct, pt.tolPct)
		}
	}
}

// TestCrossoverTableRendering covers the fig-crossover table renderer
// with synthetic points (the sweep itself is exercised by `ocbench
// tune`, which CI runs live and gates at 5% regret).
func TestCrossoverTableRendering(t *testing.T) {
	pts := []CrossoverPoint{
		{
			Mesh: "6x4", Cores: 48, Op: workload.OpAllReduce, Lines: 16,
			Auto: "rabenseifner", AutoUs: 122.4,
			Best: "rabenseifner", BestUs: 122.4, RegretPct: 0,
		},
		{
			Mesh: meshName(scc.Mesh(16, 12)), Cores: 384, Op: workload.OpBcast, Lines: 1,
			Auto: algsel.Choice{Alg: "oc", K: 7, ChunkLines: 48}.String(), AutoUs: 11.85,
			Best: "binomial", BestUs: 11.59, RegretPct: 2.29,
		},
	}
	s := CrossoverTable(pts).String()
	for _, want := range []string{"fig-crossover", "rabenseifner", "oc(k=7,chunk=48)", "binomial", "+2.29", "16x12", "384"} {
		if !strings.Contains(s, want) {
			t.Errorf("crossover table missing %q:\n%s", want, s)
		}
	}
	if len(CrossoverOps()) != 3 || len(CrossoverSizes(2)) != 5 || len(CrossoverMeshes(2)) != 4 {
		t.Error("sweep dimensions changed; update BENCH_simperf.json and this test")
	}
	if len(CrossoverMeshes(1)) != 2 || len(CrossoverSizes(1)) != 3 {
		t.Error("quick-tier sweep dimensions changed")
	}
}
