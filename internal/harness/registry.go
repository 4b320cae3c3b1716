package harness

import (
	"fmt"

	"repro/internal/scc"
)

// Experiment is a named, runnable paper artifact. Run renders its tables;
// effort picks the grid tier of the sweeps that have one (1 = quick, 2 =
// full) and changes no measured value.
type Experiment struct {
	Name string
	Desc string
	Run  func(cfg scc.Config, effort int) ([]*Table, error)
}

// Registry lists every reproducible artifact, sorted by name.
func Registry() []Experiment {
	return []Experiment{
		{"ablation", "design ablations: buffering, notification, k sweep, baseline ladder", Ablations},
		{"fig-allreduce", "allreduce latency: one-sided vs two-sided (§7 extension)", FigAllReduce},
		{"fig-apps", "whole-application kernel replay: paper-default vs auto selection", FigApps},
		{"fig-crossover", "auto-selected algorithm vs best per (mesh, op, size) — regret", FigCrossover},
		{"fig-overlap", "communication/computation overlap via non-blocking AllReduce", FigOverlap},
		{"fig-scale", "model vs simulation across mesh sizes 48-384 cores", FigScale},
		{"fig-serving", "multi-tenant serving: load vs throughput/latency, default vs auto", FigServing},
		{"fig3", "put/get completion time vs distance (Figure 3)", Fig3},
		{"fig4", "MPB contention under concurrent access (Figure 4)", Fig4},
		{"fig6", "modeled broadcast latency (Figure 6a/6b)", Fig6},
		{"fig8a", "measured broadcast latency (Figure 8a)", Fig8a},
		{"fig8b", "measured broadcast throughput (Figure 8b)", Fig8b},
		{"headline", "§6.2 headline numbers: 27% latency, ~3x throughput", Headline},
		{"mesh", "mesh link stress: no NoC contention (§3.3)", MeshStress},
		{"table1", "model parameters via calibration fit (Table 1)", Table1},
		{"table2", "modeled peak throughput (Table 2)", Table2},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", name)
}
