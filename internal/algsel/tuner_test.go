package algsel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/scc"
	"repro/internal/workload"
)

func defaultPlan(t *testing.T) *Plan {
	t.Helper()
	return Tune(scc.Table1(), scc.SCC(), scc.NumCores, core.DefaultConfig())
}

func TestTuneDeterministic(t *testing.T) {
	a, b := defaultPlan(t), defaultPlan(t)
	if a.String() != b.String() {
		t.Fatalf("two Tune runs disagree:\n%s\nvs\n%s", a, b)
	}
}

func TestTuneBandsWellFormed(t *testing.T) {
	plan := defaultPlan(t)
	if len(plan.Bands) == 0 {
		t.Fatal("empty plan")
	}
	for op, bands := range plan.Bands {
		if len(bands) == 0 {
			t.Fatalf("%s: no bands", op)
		}
		prev := 0
		for _, b := range bands {
			if b.MaxLines <= prev {
				t.Fatalf("%s: non-increasing band edge %d after %d", op, b.MaxLines, prev)
			}
			if b.Choice.Alg == "" {
				t.Fatalf("%s: band with empty choice", op)
			}
			if _, ok := Lookup(op, b.Choice.Alg); !ok {
				t.Fatalf("%s: band names unregistered algorithm %q", op, b.Choice.Alg)
			}
			if b.PredictedUs <= 0 {
				t.Fatalf("%s: band at %d has non-positive prediction", op, b.MaxLines)
			}
			prev = b.MaxLines
		}
		if bands[len(bands)-1].MaxLines != MaxTuneLines {
			t.Fatalf("%s: last band ends at %d, not MaxTuneLines", op, bands[len(bands)-1].MaxLines)
		}
	}
	// Ops with no modeled algorithms must have no table.
	if _, ok := plan.Choose(workload.OpScatter, 96); ok {
		t.Error("scatter has a decision table despite having no models")
	}
}

// TestTunePicksCrossover pins the headline selection behavior on the
// paper's 48-core chip: small allreduces go to a tree algorithm, large
// ones to the reduce-scatter composition; beyond-table sizes reuse the
// last band.
func TestTunePicksCrossover(t *testing.T) {
	plan := defaultPlan(t)
	small, ok := plan.Choose(workload.OpAllReduce, 1)
	if !ok {
		t.Fatal("no allreduce decision")
	}
	if small.Alg == "rabenseifner" {
		t.Errorf("1-line allreduce picked %s; reduce-scatter cannot win at 1 line", small)
	}
	mid, _ := plan.Choose(workload.OpAllReduce, 96)
	if mid.Alg != "rabenseifner" {
		t.Errorf("96-line allreduce picked %s, want rabenseifner", mid)
	}
	// At pipeline-filling sizes a deep one-sided tree with small chunks
	// wins (less serial combining per node than k=7, no barrier tax) —
	// confirmed against simulation: oc k=2 beats rabenseifner by ~20%
	// at 4096 lines.
	big, _ := plan.Choose(workload.OpAllReduce, 4096)
	if big.Alg != "oc" || big.K > 3 {
		t.Errorf("4096-line allreduce picked %s, want a deep oc tree", big)
	}
	beyond, _ := plan.Choose(workload.OpAllReduce, MaxTuneLines*4)
	if beyond != big {
		t.Errorf("beyond-table size picked %s, want last band's %s", beyond, big)
	}
	// The one-sided ring should own allgather on the 48-core chip (it
	// beats tree and two-sided at every size in both model and sim).
	ag, _ := plan.Choose(workload.OpAllGather, 96)
	if ag.Alg != "ring" {
		t.Errorf("allgather picked %s, want ring", ag)
	}
}

// TestTuneRespectsLayout: a base configuration with multiple channels
// shrinks the MPB room, so choices that no longer fit must not appear.
func TestTuneRespectsLayout(t *testing.T) {
	base := core.DefaultConfig()
	base.BufLines = 24
	base.Channels = 4
	plan := Tune(scc.Table1(), scc.SCC(), scc.NumCores, base)
	for op, bands := range plan.Bands {
		for _, b := range bands {
			a, ok := Lookup(op, b.Choice.Alg)
			if !ok {
				t.Fatalf("%s: unknown algorithm %q", op, b.Choice.Alg)
			}
			if !ValidChoice(base, a, b.Choice) {
				t.Errorf("%s: band choice %s does not fit the 4-channel layout", op, b.Choice)
			}
		}
	}
}

func TestBestChoiceFor(t *testing.T) {
	m := model.New(scc.Table1())
	base := core.DefaultConfig()
	oc, _ := Lookup(workload.OpAllReduce, "oc")
	ch, ok := BestChoiceFor(m, scc.SCC(), scc.NumCores, base, oc, 256)
	if !ok {
		t.Fatal("no best choice for modeled algorithm")
	}
	if ch.Alg != "oc" || ch.K == 0 || ch.ChunkLines == 0 {
		t.Errorf("best oc choice %s missing tuned parameters", ch)
	}
	sag, _ := Lookup(workload.OpBcast, "sag")
	if _, ok := BestChoiceFor(m, scc.SCC(), scc.NumCores, base, sag, 256); ok {
		t.Error("unmodeled algorithm returned a best choice")
	}
}

func TestPlanString(t *testing.T) {
	s := defaultPlan(t).String()
	for _, want := range []string{"allreduce", "6x4 mesh", "rabenseifner", ".."} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

// TestTuneScalesWithTopology: the plan is topology-sensitive — on the
// 384-core mesh the allreduce crossovers move, but the table stays well
// formed and every pick still fits.
func TestTuneScalesWithTopology(t *testing.T) {
	topo := scc.Mesh(16, 12)
	plan := Tune(scc.Table1(), topo, topo.NumCores(), core.DefaultConfig())
	if plan.P != 384 {
		t.Fatalf("plan.P = %d", plan.P)
	}
	bands := plan.Bands[workload.OpAllReduce]
	if len(bands) < 3 {
		t.Fatalf("384-core allreduce table has %d bands, want the full crossover ladder", len(bands))
	}
	algs := map[string]bool{}
	for _, b := range bands {
		algs[b.Choice.Alg] = true
	}
	if !algs["rabenseifner"] {
		t.Errorf("384-core allreduce ladder %v missing the reduce-scatter regime", bands)
	}
}
