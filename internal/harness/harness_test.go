package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/algsel"
	"repro/internal/scc"
)

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(tbl.Rows[row][col], "+"), "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q not numeric: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// tables runs an experiment on the default chip at one effort.
func tables(t *testing.T, run func(scc.Config, int) ([]*Table, error), effort int) []*Table {
	t.Helper()
	tbls, err := run(scc.DefaultConfig(), effort)
	if err != nil {
		t.Fatal(err)
	}
	return tbls
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "bb"}, Notes: []string{"note"}}
	tbl.AddRow("x", 1.5)
	s := tbl.String()
	for _, want := range []string{"## T", "a", "bb", "x", "1.50", "note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// TestFig3ModelAgreement: the simulator and the analytic model must agree
// almost exactly in contention-free mode (same formulas on both sides).
func TestFig3ModelAgreement(t *testing.T) {
	tbl := tables(t, Fig3, 1)[0]
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i := range tbl.Rows {
		if errPct := cell(t, tbl, i, 5); errPct > 0.01 || errPct < -0.01 {
			t.Errorf("row %v: sim/model disagreement %.3f%%", tbl.Rows[i], errPct)
		}
	}
	// 9 distances x 4 sizes x 2 MPB ops + 4 distances x 4 sizes x 2 mem ops.
	if want := 9*4*2 + 4*4*2; len(tbl.Rows) != want {
		t.Errorf("row count = %d, want %d", len(tbl.Rows), want)
	}
}

func TestTable1Experiment(t *testing.T) {
	tbl := tables(t, Table1, 1)[0]
	if len(tbl.Rows) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8 parameters", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		want, got := cell(t, tbl, i, 1), cell(t, tbl, i, 2)
		if diff := want - got; diff > 0.001 || diff < -0.001 {
			t.Errorf("parameter %s: configured %.3f fitted %.3f", tbl.Rows[i][0], want, got)
		}
	}
}

// TestFig4Shape: the contention knee — no meaningful slowdown at ≤24
// accessors, clear slowdown and ≥2x (get) / ≥3x (put) spread at 47.
func TestFig4Shape(t *testing.T) {
	tbl := tables(t, Fig4, 1)[0]
	rowFor := func(op string, n int) int {
		for i, r := range tbl.Rows {
			if r[0] == op && r[1] == strconv.Itoa(n) {
				return i
			}
		}
		t.Fatalf("row %s/%d not found", op, n)
		return -1
	}
	// Gets: avg at 24 within 15% of avg at 1; avg at 48 well above.
	g1 := cell(t, tbl, rowFor("get 128CL", 1), 2)
	g24 := cell(t, tbl, rowFor("get 128CL", 24), 2)
	g48 := cell(t, tbl, rowFor("get 128CL", 47), 2)
	if g24 > 1.15*g1 {
		t.Errorf("get contention visible at 24 accessors: %.2f vs %.2f", g24, g1)
	}
	if g48 < 1.3*g1 {
		t.Errorf("get contention too weak at 47 accessors: %.2f vs %.2f", g48, g1)
	}
	if spread := cell(t, tbl, rowFor("get 128CL", 47), 5); spread < 2 {
		t.Errorf("get slow/fast spread at 47 = %.2f, want >= 2 (paper: >2x)", spread)
	}
	// Puts.
	p1 := cell(t, tbl, rowFor("put 1CL", 1), 2)
	p48 := cell(t, tbl, rowFor("put 1CL", 47), 2)
	if p48 < 1.3*p1 {
		t.Errorf("put contention too weak at 47: %.2f vs %.2f", p48, p1)
	}
	if spread := cell(t, tbl, rowFor("put 1CL", 47), 5); spread < 3 {
		t.Errorf("put slow/fast spread at 47 = %.2f, want >= 3 (paper: >4x)", spread)
	}
}

// TestFig8aShape: measured latency — OC-Bcast k=7 wins ≥20% at 1 CL and
// at every plotted size; k=7 and k=47 stay within ~20% of each other
// (contention erases the model's k=47 edge).
func TestFig8aShape(t *testing.T) {
	tbl := tables(t, Fig8a, 1)[0]
	for i := range tbl.Rows {
		k7, bin := cell(t, tbl, i, 2), cell(t, tbl, i, 4)
		if k7 >= bin {
			t.Errorf("size %s: OC k=7 (%.2f) not below binomial (%.2f)", tbl.Rows[i][0], k7, bin)
		}
	}
	k7_1, bin1 := cell(t, tbl, 0, 2), cell(t, tbl, 0, 4)
	if imp := (bin1 - k7_1) / bin1; imp < 0.20 {
		t.Errorf("1-CL improvement %.0f%%, paper reports 27%%", imp*100)
	}
	// k=7 vs k=47 at 96 lines: close. The paper's curves overlap; our
	// contention model leaves a small residual penalty on k=47 (see
	// EXPERIMENTS.md), so allow up to ~45%.
	for i := range tbl.Rows {
		if tbl.Rows[i][0] != "96" {
			continue
		}
		k7, k47 := cell(t, tbl, i, 2), cell(t, tbl, i, 3)
		ratio := k47 / k7
		if ratio < 0.75 || ratio > 1.45 {
			t.Errorf("k=47/k=7 at 96 CL = %.2f, expect rough parity (paper: curves overlap)", ratio)
		}
	}
}

// TestFig8bShape: measured throughput — ~3x advantage at the peak and the
// 97-CL dip.
func TestFig8bShape(t *testing.T) {
	tbl := tables(t, Fig8b, 0)[0] // one repetition per cell
	byCL := map[string][]float64{}
	for i, r := range tbl.Rows {
		byCL[r[0]] = []float64{cell(t, tbl, i, 1), cell(t, tbl, i, 2), cell(t, tbl, i, 3), cell(t, tbl, i, 4)}
	}
	peak := byCL["8192"]
	if ratio := peak[1] / peak[3]; ratio < 2.2 {
		t.Errorf("k=7 vs s-ag peak throughput ratio = %.2f, paper: almost 3x", ratio)
	}
	// 97-CL dip: throughput at 97 lines below 96 lines for k=7.
	if byCL["97"][1] >= byCL["96"][1] {
		t.Errorf("no 97-CL dip: thr(97)=%.2f >= thr(96)=%.2f", byCL["97"][1], byCL["96"][1])
	}
	// Throughput grows with size up to the peak region for k=7.
	if byCL["8192"][1] <= byCL["256"][1] {
		t.Errorf("throughput not saturating upward: %.2f at 8192 vs %.2f at 256",
			byCL["8192"][1], byCL["256"][1])
	}
}

// TestMeshStressNoContention: the paper's negative result, reproduced
// with the detailed NoC model.
func TestMeshStressNoContention(t *testing.T) {
	tbl := tables(t, MeshStress, 1)[0]
	free, loaded := cell(t, tbl, 0, 1), cell(t, tbl, 1, 1)
	if loaded > 1.05*free {
		t.Errorf("mesh contention appeared: loaded %.3f vs free %.3f", loaded, free)
	}
}

// TestAblationNotification: binary tree must beat sequential notification
// for large k.
func TestAblationNotification(t *testing.T) {
	tbl := tables(t, Ablations, 1)[1]
	last := len(tbl.Rows) - 1 // k = 47
	bin, seq := cell(t, tbl, last, 1), cell(t, tbl, last, 2)
	if bin >= seq {
		t.Errorf("binary notification (%.2f) not faster than sequential (%.2f) at k=47", bin, seq)
	}
}

// TestAblationBuffering: double buffering wins latency at the 192-CL
// point and does not lose throughput.
func TestAblationBuffering(t *testing.T) {
	tbl := tables(t, Ablations, 1)[0]
	latD, thD := cell(t, tbl, 0, 1), cell(t, tbl, 0, 2)
	latS, thS := cell(t, tbl, 1, 1), cell(t, tbl, 1, 2)
	if latD >= latS {
		t.Errorf("double buffering latency %.2f not below single %.2f", latD, latS)
	}
	if thD < 0.9*thS {
		t.Errorf("double buffering throughput %.2f well below single %.2f", thD, thS)
	}
}

func TestHeadline(t *testing.T) {
	tbl := tables(t, Headline, 1)[0]
	if len(tbl.Rows) != 6 {
		t.Fatalf("headline rows = %d, want 6", len(tbl.Rows))
	}
	// Improvement row formatted as "NN%".
	imp := tbl.Rows[2][2]
	if !strings.HasSuffix(imp, "%") {
		t.Fatalf("improvement cell %q", imp)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(imp, "%"), 64)
	if err != nil || v < 20 {
		t.Errorf("latency improvement %q, want >= 20%% (paper: 27%%)", imp)
	}
}

func TestRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) != 16 {
		t.Fatalf("registry has %d experiments, want 16", len(reg))
	}
	if _, err := Lookup("fig8a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Fast experiments run end to end through the registry.
	for _, name := range []string{"fig6", "table2", "table1"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tabs, err := e.Run(scc.DefaultConfig(), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			t.Fatalf("%s returned empty tables", name)
		}
	}
}

func TestMeasureUnknownAlg(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm did not panic")
		}
	}()
	c := newCell(scc.DefaultConfig(), algsel.OpBcast, "zzz", 0).sized(1, 1)
	c.N = 4
	measure(c)
}
