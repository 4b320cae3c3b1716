package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/harness"
)

// appsCells renders an apps section with one cell per speedup.
func appsCells(gate, worst float64, speedups ...float64) string {
	t := appsTable{summary: summary{Gate: gate, Worst: worst}}
	for i, s := range speedups {
		t.Cells = append(t.Cells, harness.AppPoint{
			Kernel: []string{"sgd", "stencil", "shuffle"}[i%3], Mesh: "6x4", Cores: 48,
			Records: 16, DefaultUs: 100 * s, AutoUs: 100, Speedup: s,
		})
	}
	raw, _ := json.Marshal(t)
	return string(raw)
}

// TestVerifyTable drives the one verify path (load → full sweep → gate →
// summary) with synthetic files through a two-row apps-shaped table.
func TestVerifyTable(t *testing.T) {
	p := *pinnedTables[1]
	if p.cmd != "apps" {
		t.Fatalf("pinnedTables[1] is %q, want apps", p.cmd)
	}
	p.rows = 2

	cases := []struct {
		name string
		file string // content; "-" = no file
		want string // substring of the error; "" = nil
	}{
		{"missing file", "-", "run `ocbench apps`"},
		{"not JSON", `{"apps":`, "unexpected end of JSON input"},
		{"missing section", `{"serving":{}}`, `has no "apps" section`},
		{"empty section", `{"apps":{"gate":0.99,"worst":1,"cells":[]}}`, `has no "apps" section`},
		{"unknown field in a cell", `{"apps":{"cells":[{"kernel":"sgd","sims_per_sec":4081}]}}`, `unknown field "sims_per_sec"`},
		{"old summary key", `{"apps":{"min_speedup":1,"cells":[]}}`, `unknown field "min_speedup"`},
		{"quick-tier table committed", `{"apps":` + appsCells(0.99, 1.2, 1.2) + `}`, "has 1 gated rows, the full sweep has 2"},
		{"one cell past the gate", `{"apps":` + appsCells(0.99, 0.9, 1.5, 0.9) + `}`, "stencil on 6x4: auto 100.00 µs vs default 90.00 µs (0.9)"},
		{"stale summary", `{"apps":` + appsCells(0.99, 1.5, 1.5, 1.25) + `}`, "its rows give {Gate:0.99 Worst:1.25}"},
		{"stale gate", `{"apps":` + appsCells(0.5, 1.25, 1.5, 1.25) + `}`, "its rows give {Gate:0.99 Worst:1.25}"},
		{"all within", `{"apps":` + appsCells(0.99, 0.995, 1.5, 0.995) + `,"other":1}`, ""},
	}
	for _, tc := range cases {
		file := filepath.Join(t.TempDir(), benchFile)
		if tc.file != "-" {
			if err := os.WriteFile(file, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := p.verify(file)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestJudgeDirections pins both gate directions: regret passes at or
// below its gate, speedups and ratios at or above theirs, and the worst
// row is the one nearest to failing.
func TestJudgeDirections(t *testing.T) {
	rows := []gatedRow{{"a", 1}, {"b", 5}, {"c", 0.99}}
	atMost := pinned{gate: 5}
	if sum, err := atMost.judge(rows); err != nil || sum != (summary{Gate: 5, Worst: 5}) {
		t.Errorf("at-most gate: %+v, %v", sum, err)
	}
	atLeast := pinned{gate: 0.99, atLeast: true}
	if sum, err := atLeast.judge(rows); err != nil || sum != (summary{Gate: 0.99, Worst: 0.99}) {
		t.Errorf("at-least gate: %+v, %v", sum, err)
	}
	atMost.gate = 4
	if _, err := atMost.judge(rows); err == nil || !strings.Contains(err.Error(), "b (5)") || strings.Contains(err.Error(), "a (1)") {
		t.Errorf("at-most gate 4: error %v, want only row b named", err)
	}
}

// TestWriteKeepsOtherSections: a refresh of one table replaces its
// section and nothing else, and what it wrote verifies.
func TestWriteKeepsOtherSections(t *testing.T) {
	file := filepath.Join(t.TempDir(), benchFile)
	if err := os.WriteFile(file, []byte(`{"crossover":{"gate":5},"apps":{"gate":0.5,"worst":0.5,"cells":[]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p := *pinnedTables[1]
	p.rows = 2
	tb := &appsTable{Cells: []harness.AppPoint{{Kernel: "sgd", Speedup: 1.5}, {Kernel: "stencil", Speedup: 1.25}}}
	tb.summary, _ = p.judge(tb.gated())
	if err := p.write(file, tb); err != nil {
		t.Fatal(err)
	}
	if err := p.verify(file); err != nil {
		t.Errorf("written section does not verify: %v", err)
	}
	raw, _ := os.ReadFile(file)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var kept summary
	if err := json.Unmarshal(doc["crossover"], &kept); err != nil || kept.Gate != 5 || len(doc) != 2 {
		t.Errorf("crossover section not kept: %s (%v)", raw, err)
	}
}

// TestCommittedFileSchema pins the committed BENCH_simperf.json: exactly
// the three pinned tables, each decoding into the harness point types
// with unknown fields refused, at full sweep size and within its gate.
func TestCommittedFileSchema(t *testing.T) {
	file := filepath.Join("..", "..", benchFile)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "apps,crossover,serving" {
		t.Errorf("top-level keys %s, want exactly apps,crossover,serving (host-time numbers live in bench/)", got)
	}
	for _, p := range pinnedTables {
		if err := p.verify(file); err != nil {
			t.Errorf("%s: %v", p.cmd, err)
		}
	}
	// The serving section pins the load/latency cells next to the gated
	// meshes: five loads × two modes on both meshes.
	tb, err := pinnedTables[2].load(file)
	if err != nil {
		t.Fatal(err)
	}
	if s := tb.(*servingTable); len(s.Cells) != 20 || s.Meshes[0].Cores != 48 || s.Meshes[1].Cores != 384 {
		t.Errorf("serving: %d cells over meshes %+v, want 20 over 48 and 384 cores", len(s.Cells), s.Meshes)
	}
}
