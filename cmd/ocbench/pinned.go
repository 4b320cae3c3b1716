package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scc"
)

// BENCH_simperf.json pins three tables of deterministic simulated
// values, one per subcommand: tune writes "crossover" (auto-selection
// regret per mesh, operation and size), apps writes "apps" (whole-app
// makespan of the internal/workload kernels, paper defaults vs auto) and
// serving writes "serving" (load/latency cells and per-mesh saturation
// throughput, defaults vs auto). A subcommand simulates its sweep,
// writes its section and gates it; with -verify it gates the committed
// section without simulating. All three go through the one path in this
// file, and the rows are the harness point types themselves. Host time
// is not in the file: bench/ measures that.
const benchFile = "BENCH_simperf.json"

// The gates. Speedup and ratio sit slightly below 1.0 to absorb
// noise-level scheduling differences: at saturation both serving modes
// ride the same non-blocking lanes, so parity is the expected ratio; the
// regime where auto genuinely wins is the apps table.
const (
	regretMaxPct    = 5    // tune: auto vs the cell's best algorithm, percent slower
	appsMinSpeedup  = 0.99 // apps: default makespan ÷ auto makespan
	servingMinRatio = 0.99 // serving: auto ÷ default saturation throughput
)

// summary heads every section: the gate its rows were held to and the
// worst row's value.
type summary struct {
	Gate  float64 `json:"gate"`
	Worst float64 `json:"worst"`
}

func (s *summary) head() *summary { return s }

// gatedRow is one row's name, for messages, and the value the gate reads.
type gatedRow struct {
	name  string
	value float64
}

// table is a section of the file as the gate path sees it.
type table interface {
	head() *summary
	gated() []gatedRow
}

type crossoverTable struct {
	summary
	Cells []harness.CrossoverPoint `json:"cells"`
}

func (t *crossoverTable) gated() []gatedRow {
	var rows []gatedRow
	for _, c := range t.Cells {
		rows = append(rows, gatedRow{fmt.Sprintf("%s %s %d CL: auto %s %.2f µs vs best %s %.2f µs",
			c.Mesh, c.Op, c.Lines, c.Auto, c.AutoUs, c.Best, c.BestUs), c.RegretPct})
	}
	return rows
}

type appsTable struct {
	summary
	Cells []harness.AppPoint `json:"cells"`
}

func (t *appsTable) gated() []gatedRow {
	var rows []gatedRow
	for _, c := range t.Cells {
		rows = append(rows, gatedRow{fmt.Sprintf("%s on %s: auto %.2f µs vs default %.2f µs",
			c.Kernel, c.Mesh, c.AutoUs, c.DefaultUs), c.Speedup})
	}
	return rows
}

// servingTable gates the per-mesh saturation rows; the load/latency
// cells they were reduced from are pinned next to them.
type servingTable struct {
	summary
	Meshes []harness.ServeSaturation `json:"meshes"`
	Cells  []harness.ServeCell       `json:"cells"`
}

func (t *servingTable) gated() []gatedRow {
	var rows []gatedRow
	for _, m := range t.Meshes {
		rows = append(rows, gatedRow{fmt.Sprintf("%s: auto %.0f req/s vs default %.0f req/s",
			m.Mesh, m.AutoRps, m.DefaultRps), m.Ratio})
	}
	return rows
}

// pinned is one section of the file and the subcommand that owns it.
type pinned struct {
	cmd, key string // subcommand and top-level key of the file
	desc     string // for `ocbench list`
	what     string // the gated value, for messages
	gate     float64
	atLeast  bool // a row passes at value ≥ gate; otherwise at value ≤ gate
	rows     int  // gated rows of the full (effort 2) sweep, which is what is committed
	empty    func() table
	// sweep simulates the table at the given effort and prints it.
	sweep func(cfg scc.Config, effort int) table
	// also, when set, is a further acceptance check run after the gate.
	also func(cfg scc.Config) error
}

var pinnedTables = []*pinned{
	{
		cmd: "tune", key: "crossover",
		desc: "decision tables + auto-selection regret gate",
		what: "auto-selection regret in percent", gate: regretMaxPct, rows: 60,
		empty: func() table { return new(crossoverTable) },
		sweep: func(cfg scc.Config, effort int) table {
			for _, topo := range harness.CrossoverMeshes(effort) {
				fmt.Print(algsel.TuneCached(cfg.Params, topo, topo.NumCores(), occore.DefaultConfig()))
			}
			pts := harness.CrossoverSweep(cfg, effort)
			harness.CrossoverTable(pts).Fprint(os.Stdout)
			return &crossoverTable{Cells: pts}
		},
	},
	{
		cmd: "apps", key: "apps",
		desc: "whole-app kernel replay speedup gate",
		what: "whole-app speedup of auto over the paper defaults", gate: appsMinSpeedup, atLeast: true, rows: 6,
		empty: func() table { return new(appsTable) },
		sweep: func(cfg scc.Config, effort int) table {
			pts := harness.AppsSweep(cfg, effort)
			harness.AppsTable(pts).Fprint(os.Stdout)
			return &appsTable{Cells: pts}
		},
	},
	{
		cmd: "serving", key: "serving",
		desc: "multi-tenant serving sweep + saturation gate + determinism double-run",
		what: "saturation throughput of auto over the paper defaults", gate: servingMinRatio, atLeast: true, rows: 2,
		empty: func() table { return new(servingTable) },
		sweep: func(cfg scc.Config, effort int) table {
			cells := harness.ServingSweep(cfg, effort)
			sats := harness.Saturation(cells)
			harness.ServingTable(cells).Fprint(os.Stdout)
			harness.SaturationTable(sats).Fprint(os.Stdout)
			return &servingTable{Meshes: sats, Cells: cells}
		},
		also: servingDeterminism,
	},
}

// run is the subcommand: gate the committed section (verify) or simulate,
// write and gate a fresh one.
func (p *pinned) run(cfg scc.Config, effort int, verify bool) error {
	var err error
	if verify {
		err = p.verify(benchFile)
	} else {
		err = p.refresh(benchFile, cfg, effort)
	}
	if err == nil && p.also != nil {
		err = p.also(cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", p.cmd, err)
	}
	return nil
}

// refresh simulates the table, writes it into file with its summary and
// reports the rows past the gate.
func (p *pinned) refresh(file string, cfg scc.Config, effort int) error {
	t := p.sweep(cfg, effort)
	rows := t.gated()
	sum, gateErr := p.judge(rows)
	*t.head() = sum
	if err := p.write(file, t); err != nil {
		return err
	}
	fmt.Printf("%s: %d gated rows, worst %.4g (gate %g), wrote section %q of %s\n",
		p.cmd, len(rows), sum.Worst, sum.Gate, p.key, file)
	return gateErr
}

// verify gates the section committed in file without simulating: it must
// be the full sweep, every row within the gate, and its summary must be
// the one its rows give.
func (p *pinned) verify(file string) error {
	t, err := p.load(file)
	if err != nil {
		return err
	}
	rows := t.gated()
	if len(rows) != p.rows {
		return fmt.Errorf("%s: section %q has %d gated rows, the full sweep has %d (run `ocbench -effort 2 %s`)",
			file, p.key, len(rows), p.rows, p.cmd)
	}
	sum, err := p.judge(rows)
	if err != nil {
		return err
	}
	if *t.head() != sum {
		return fmt.Errorf("%s: section %q is headed %+v but its rows give %+v (run `ocbench %s`)",
			file, p.key, *t.head(), sum, p.cmd)
	}
	fmt.Printf("%s -verify: %d committed rows, worst %.4g (gate %g)\n", p.cmd, len(rows), sum.Worst, sum.Gate)
	return nil
}

// judge computes the summary of rows (at least one) and fails naming
// every row past the gate.
func (p *pinned) judge(rows []gatedRow) (summary, error) {
	worse := func(a, b float64) bool {
		if p.atLeast {
			return a < b
		}
		return a > b
	}
	sum := summary{Gate: p.gate, Worst: rows[0].value}
	var past []string
	for _, r := range rows {
		if worse(r.value, sum.Worst) {
			sum.Worst = r.value
		}
		if worse(r.value, p.gate) {
			past = append(past, fmt.Sprintf("%s (%.4g)", r.name, r.value))
		}
	}
	if past == nil {
		return sum, nil
	}
	return sum, fmt.Errorf("%d row(s) past the gate %g on %s:\n  %s",
		len(past), p.gate, p.what, strings.Join(past, "\n  "))
}

// load decodes the table's section of file, refusing fields the row
// types do not have; a section without gated rows counts as missing.
func (p *pinned) load(file string) (table, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("%w (run `ocbench %s`)", err, p.cmd)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	t := p.empty()
	if sec, ok := doc[p.key]; ok {
		dec := json.NewDecoder(bytes.NewReader(sec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(t); err != nil {
			return nil, fmt.Errorf("%s: section %q: %w", file, p.key, err)
		}
	}
	if len(t.gated()) == 0 {
		return nil, fmt.Errorf("%s has no %q section (run `ocbench %s`)", file, p.key, p.cmd)
	}
	return t, nil
}

// write replaces the table's section of file, keeping the other
// sections as they are.
func (p *pinned) write(file string, t table) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s exists but is not JSON: %w", file, err)
		}
	}
	sec, err := json.Marshal(t)
	if err != nil {
		return err
	}
	doc[p.key] = sec
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(out, '\n'), 0o644)
}

// servingDeterminism is serving's bit-identical acceptance check: the
// same 48-core mix served twice on fresh Systems must produce
// byte-identical stats (every completion clock, every counter).
func servingDeterminism(cfg scc.Config) error {
	a := harness.MeasureServe(cfg, scc.SCC(), 1, "auto").Fingerprint()
	b := harness.MeasureServe(cfg, scc.SCC(), 1, "auto").Fingerprint()
	if a != b {
		return fmt.Errorf("two runs of the same mix diverged — serving is not deterministic")
	}
	fmt.Println("serving: determinism double-run OK (48 cores, bit-identical stats)")
	return nil
}
