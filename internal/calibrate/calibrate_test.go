package calibrate

import (
	"math"
	"testing"

	"repro/internal/algsel"
	"repro/internal/core"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// meshes are the chips calibration must see through: the paper's 6×4
// SCC and two larger meshes whose distances the 6×4 helpers get wrong.
var meshes = []scc.Config{scc.DefaultConfig(), scc.MeshConfig(8, 6), scc.MeshConfig(16, 12)}

func TestMicrobenchCoverage(t *testing.T) {
	samples := Microbench(scc.DefaultConfig(), nil)
	// 9 distances × 4 default sizes × 4 op families.
	if want := 9 * 4 * 4; len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	for _, s := range samples {
		if s.Duration <= 0 {
			t.Fatalf("non-positive duration in sample %+v", s)
		}
	}
}

func TestCoreAtDistance(t *testing.T) {
	for _, cfg := range meshes {
		topo := cfg.Topology()
		for d := 1; d <= 9; d++ {
			c := coreAtDistance(topo, d)
			if got := topo.CoreDistance(0, c); got != d {
				t.Errorf("%v: coreAtDistance(%d) = core %d at distance %d", topo, d, c, got)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("distance 10 on the 6x4 SCC did not panic")
		}
	}()
	coreAtDistance(scc.SCC(), 10)
}

// TestFitRecoversTable1 is the Table 1 reproduction: fitting the model to
// simulated microbenchmarks must recover the configured parameters almost
// exactly (the simulator charges exactly the analytic costs when
// contention is off, so R² ≈ 1 and parameters match to rounding) — on
// every mesh, since the hop and memory-controller distances the fit
// regresses on are the chip's own.
func TestFitRecoversTable1(t *testing.T) {
	for _, cfg := range meshes {
		t.Run(cfg.Topology().String(), func(t *testing.T) {
			fit, err := FitParams(Microbench(cfg, []int{1, 2, 4, 8, 16, 32}))
			if err != nil {
				t.Fatal(err)
			}
			truth := scc.Table1()
			check := func(name string, got, want sim.Duration) {
				t.Helper()
				g, w := got.Microseconds(), want.Microseconds()
				if math.Abs(g-w) > 1e-4 {
					t.Errorf("%s fitted %.6f µs, configured %.6f µs", name, g, w)
				}
			}
			check("Lhop", fit.Params.Lhop, truth.Lhop)
			check("ompb", fit.Params.OMpb, truth.OMpb)
			check("omem_w", fit.Params.OMemW, truth.OMemW)
			check("omem_r", fit.Params.OMemR, truth.OMemR)
			check("ompb_put", fit.Params.OMpbPut, truth.OMpbPut)
			check("ompb_get", fit.Params.OMpbGet, truth.OMpbGet)
			check("omem_put", fit.Params.OMemPut, truth.OMemPut)
			check("omem_get", fit.Params.OMemGet, truth.OMemGet)
			for fam, r2 := range fit.R2 {
				if r2 < 0.999999 {
					t.Errorf("family %s R² = %v, want ≈ 1", fam, r2)
				}
			}
		})
	}
}

// TestFitThenTune closes the round trip calibration exists for: fit the
// Table 1 parameters from simulated microbenchmarks, then plan
// auto-selection from the *fitted* parameters. The tuner must draw the
// same decision table as from the configured truth — every band edge and
// every choice, in both the full and the one-sided family — on the
// paper's chip and on the 384-core mesh. Predicted latencies may differ
// by the fit's rounding (picoseconds) and are not compared.
func TestFitThenTune(t *testing.T) {
	base := core.DefaultConfig()
	for _, cfg := range []scc.Config{scc.DefaultConfig(), scc.MeshConfig(16, 12)} {
		fit, err := FitParams(Microbench(cfg, []int{1, 2, 4, 8, 16, 32}))
		if err != nil {
			t.Fatal(err)
		}
		topo := cfg.Topology()
		p := topo.NumCores()
		truth := algsel.Tune(cfg.Params, topo, p, base)
		fitted := algsel.Tune(fit.Params, topo, p, base)
		for _, tables := range [][2]map[string][]algsel.Band{
			{truth.Bands, fitted.Bands},
			{truth.OneSidedBands, fitted.OneSidedBands},
		} {
			for _, op := range algsel.Ops() {
				want, got := tables[0][op], tables[1][op]
				same := len(want) == len(got)
				for i := 0; same && i < len(want); i++ {
					same = want[i].MaxLines == got[i].MaxLines && want[i].Choice == got[i].Choice
				}
				if !same {
					t.Errorf("%v %s: configured params plan %v, fitted params plan %v", topo, op, want, got)
				}
			}
		}
	}
}

// TestFitThenTuneThresholds pins where the plan drawn from fitted
// parameters switches allreduce algorithm on the paper's chip:
// rabenseifner overtakes the hybrid composition in the low tens of lines
// (the fig-crossover sweep shows hybrid winning at 4 lines and
// rabenseifner at 16), and a one-sided tree owns the largest sizes.
func TestFitThenTuneThresholds(t *testing.T) {
	cfg := scc.DefaultConfig()
	fit, err := FitParams(Microbench(cfg, []int{1, 2, 4, 8, 16, 32}))
	if err != nil {
		t.Fatal(err)
	}
	topo := cfg.Topology()
	plan := algsel.Tune(fit.Params, topo, topo.NumCores(), core.DefaultConfig())
	choose := func(lines int) algsel.Choice {
		c, ok := plan.Choose(workload.OpAllReduce, lines)
		if !ok {
			t.Fatalf("no allreduce decision at %d lines", lines)
		}
		return c
	}
	x := 1
	for x <= algsel.MaxTuneLines && choose(x).Alg != "rabenseifner" {
		x++
	}
	if x < 5 || x > 16 {
		t.Errorf("rabenseifner takes allreduce at %d lines, want within (4, 16]", x)
	} else if prev := choose(x - 1); prev.Alg != "hybrid" {
		t.Errorf("below %d lines allreduce picks %s, want hybrid", x, prev)
	}
	if big := choose(algsel.MaxTuneLines); big.Alg != "oc" {
		t.Errorf("%d-line allreduce picks %s, want oc", algsel.MaxTuneLines, big)
	}
}

// TestFitRecoversPerturbedParams: calibration must work for parameter
// sets other than Table 1 (it fits, not memorizes).
func TestFitRecoversPerturbedParams(t *testing.T) {
	cfg := scc.DefaultConfig()
	cfg.Params.Lhop = sim.Micros(0.009)
	cfg.Params.OMpb = sim.Micros(0.2)
	cfg.Params.OMemR = sim.Micros(0.35)
	samples := Microbench(cfg, []int{1, 4, 16})
	fit, err := FitParams(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Params.Lhop.Microseconds()-0.009) > 1e-4 {
		t.Errorf("Lhop fitted %.6f, want 0.009", fit.Params.Lhop.Microseconds())
	}
	if math.Abs(fit.Params.OMpb.Microseconds()-0.2) > 1e-4 {
		t.Errorf("ompb fitted %.6f, want 0.2", fit.Params.OMpb.Microseconds())
	}
	if math.Abs(fit.Params.OMemR.Microseconds()-0.35) > 1e-4 {
		t.Errorf("omem_r fitted %.6f, want 0.35", fit.Params.OMemR.Microseconds())
	}
}

func TestFitParamsMissingFamily(t *testing.T) {
	samples := Microbench(scc.DefaultConfig(), []int{1, 4})
	var getOnly []Sample
	for _, s := range samples {
		if s.Op == "mpbGet" {
			getOnly = append(getOnly, s)
		}
	}
	if _, err := FitParams(getOnly); err == nil {
		t.Fatal("fit with missing families did not fail")
	}
}
