package collective_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/collective"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Every two-sided collective is pinned to committed digests: each cell of
// the grid below must reproduce its row of
// testdata/collective_digests.json exactly. The rows were recorded at the
// last commit whose collectives sequenced their sends, receives, turn
// grants, shape fences and combines in Go control flow, one machine
// section per call (f1068b5). The grid crosses every algorithm with roots
// {0, n−1, n/2}, sizes around the 251/252-line RCCE chunk boundary and
// {2, 3, 8, 48} cores, plus back-to-back sequences whose pairing graphs
// differ, so each crosses a shape fence.

// collectiveDigest is one row of testdata/collective_digests.json:
// FNV-1a-64 hashes of the per-core finish clocks (ps) and of every core's
// private bytes, the chip's summed counters, and the engine's slow-path
// switch count.
type collectiveDigest struct {
	Cell     string             `json:"cell"`
	Clocks   string             `json:"clocks_fnv64"`
	Bytes    string             `json:"bytes_fnv64"`
	Counters trace.CoreCounters `json:"counters"`
	Switches int64              `json:"switches"`
}

// collectiveCell is one cell of the grid: body runs on each of n cores
// over span seeded bytes of private memory per core.
type collectiveCell struct {
	name    string
	class   string // the (algorithm or sequence, lines) class
	n, span int
	body    func(c *collective.Comm)
}

// algorithm is one collective of the grid: span is the private memory
// it touches per core (in lines) and call runs it on a Comm; scratch
// areas sit above the n·lines data region.
type algorithm struct {
	name   string
	rooted bool
	span   func(n, lines int) int
	call   func(c *collective.Comm, n, root, lines int)
}

func scratch(n, lines int) int { return n * lines * scc.CacheLine }

var (
	oneMessage = func(_, lines int) int { return lines }
	withSlack  = func(n, lines int) int { return (n + 1) * lines }
	perCore    = func(n, lines int) int { return n * lines }

	gridAlgorithms = []algorithm{
		{"binomial", true, oneMessage, func(c *collective.Comm, _, root, lines int) { c.BcastBinomial(root, 0, lines) }},
		{"naive", true, oneMessage, func(c *collective.Comm, _, root, lines int) { c.BcastNaive(root, 0, lines) }},
		{"sag", true, oneMessage, func(c *collective.Comm, _, root, lines int) { c.BcastScatterAllgather(root, 0, lines) }},
		{"sag1s", true, oneMessage, func(c *collective.Comm, _, root, lines int) { c.BcastScatterAllgatherOneSided(root, 0, lines) }},
		{"reduce", true, withSlack, func(c *collective.Comm, n, root, lines int) {
			c.Reduce(root, 0, scratch(n, lines), lines, collective.SumInt64)
		}},
		{"gather", true, perCore, func(c *collective.Comm, _, root, lines int) { c.Gather(root, 0, lines) }},
		{"scatter", true, perCore, func(c *collective.Comm, _, root, lines int) { c.Scatter(root, 0, lines) }},
		{"allreduce", false, withSlack, func(c *collective.Comm, n, _, lines int) {
			c.AllReduce(0, scratch(n, lines), lines, collective.MaxInt64)
		}},
		{"allgather", false, perCore, func(c *collective.Comm, _, _, lines int) { c.AllGather(0, lines) }},
		{"rabenseifner", false, withSlack, func(c *collective.Comm, n, _, lines int) {
			c.AllReduceRabenseifner(0, scratch(n, lines), lines, collective.SumInt64)
		}},
	}
	digestLines = []int{1, 32, 251, 252, 503}
	digestCores = []int{2, 3, 8, 48}

	// shapeSequences run back to back on one port; every change of
	// pairing graph (class or root) crosses the shape fence, and the
	// repeated binomial broadcast does not.
	shapeSequences = []struct {
		name string
		run  func(c *collective.Comm, n, lines int)
	}{
		{"gather0-gather1", func(c *collective.Comm, _, lines int) {
			c.Gather(0, 0, lines)
			c.Gather(1, 0, lines)
		}},
		{"gather-allgather", func(c *collective.Comm, _, lines int) {
			c.Gather(0, 0, lines)
			c.AllGather(0, lines)
		}},
		{"binomial-binomial-sag", func(c *collective.Comm, n, lines int) {
			c.BcastBinomial(n-1, 0, lines)
			c.BcastBinomial(n-1, 0, lines)
			c.BcastScatterAllgather(0, 0, lines)
		}},
		{"reduce-scatter-naive", func(c *collective.Comm, n, lines int) {
			c.Reduce(n/2, 0, scratch(n, lines), lines, collective.SumInt64)
			c.Scatter(0, 0, lines)
			c.BcastNaive(1, 0, lines)
		}},
		{"rabenseifner-allreduce-sag1s", func(c *collective.Comm, n, lines int) {
			c.AllReduceRabenseifner(0, scratch(n, lines), lines, collective.SumInt64)
			c.AllReduce(0, scratch(n, lines), lines, collective.SumInt64)
			c.BcastScatterAllgatherOneSided(n-1, 0, lines)
		}},
	}
)

// digestRoots are the distinct roots of {0, n−1, n/2}.
func digestRoots(n int) []int {
	roots := []int{0}
	for _, r := range []int{n - 1, n / 2} {
		if r != roots[len(roots)-1] && r != 0 {
			roots = append(roots, r)
		}
	}
	return roots
}

// skewComm staggers the cores' arrival so some waits block and some are
// already satisfied.
func skewComm(c *collective.Comm) {
	core := c.Port().Core()
	core.Compute(sim.Duration(core.ID()%5) * 700 * sim.Nanosecond)
}

func collectiveCells() []collectiveCell {
	var cells []collectiveCell
	for _, a := range gridAlgorithms {
		for _, lines := range digestLines {
			for _, n := range digestCores {
				roots := []int{0}
				if a.rooted {
					roots = digestRoots(n)
				}
				for _, root := range roots {
					a, n, root, lines := a, n, root, lines // go.mod is pre-1.22: per-iteration copies
					name := fmt.Sprintf("%s/l%d/n%d", a.name, lines, n)
					if a.rooted {
						name = fmt.Sprintf("%s/root%d/l%d/n%d", a.name, root, lines, n)
					}
					cells = append(cells, collectiveCell{
						name: name, class: fmt.Sprintf("%s/l%d", a.name, lines),
						n: n, span: a.span(n, lines) * scc.CacheLine,
						body: func(c *collective.Comm) {
							skewComm(c)
							a.call(c, n, root, lines)
						},
					})
				}
			}
		}
	}
	for _, s := range shapeSequences {
		for _, lines := range []int{1, 252} {
			for _, n := range []int{3, 8} {
				s, n, lines := s, n, lines
				cells = append(cells, collectiveCell{
					name:  fmt.Sprintf("seq/%s/l%d/n%d", s.name, lines, n),
					class: fmt.Sprintf("seq/%s/l%d", s.name, lines),
					n:     n, span: withSlack(n, lines) * scc.CacheLine,
					body: func(c *collective.Comm) {
						skewComm(c)
						s.run(c, n, lines)
					},
				})
			}
		}
	}
	return cells
}

// run simulates the cell on a fresh chip and digests it.
func (cc collectiveCell) run() collectiveDigest {
	chip := rma.NewChipN(scc.DefaultConfig(), cc.n)
	buf := make([]byte, cc.span)
	for c := 0; c < cc.n; c++ {
		for i := range buf {
			buf[i] = byte(i*13 + c*31 + 5)
		}
		chip.Private(c).Write(0, buf)
	}
	finish := make([]sim.Time, cc.n)
	chip.Run(func(c *rma.Core) {
		cc.body(collective.NewComm(rcce.NewPort(c)))
		finish[c.ID()] = c.Now()
	})
	clocks, bytes := fnv.New64a(), fnv.New64a()
	for c := 0; c < cc.n; c++ {
		fmt.Fprintf(clocks, "%d\n", int64(finish[c]))
		chip.Private(c).Read(buf, 0, len(buf))
		bytes.Write(buf)
	}
	return collectiveDigest{
		Cell:     cc.name,
		Clocks:   fmt.Sprintf("%016x", clocks.Sum64()),
		Bytes:    fmt.Sprintf("%016x", bytes.Sum64()),
		Counters: trace.Sum(chip.Counter),
		Switches: chip.Engine.Switches(),
	}
}

func loadCollectiveDigests(t *testing.T) []collectiveDigest {
	t.Helper()
	f, err := os.Open("testdata/collective_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rows []collectiveDigest
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCollectiveDigestSchema pins the committed file's shape — one
// filled row per grid cell, in grid order — so a truncated file cannot
// make the comparison vacuous.
func TestCollectiveDigestSchema(t *testing.T) {
	rows, cells := loadCollectiveDigests(t), collectiveCells()
	if len(rows) != len(cells) {
		t.Fatalf("%d rows, want %d", len(rows), len(cells))
	}
	for i, r := range rows {
		if r.Cell != cells[i].name {
			t.Errorf("row %d is cell %q, want %q", i, r.Cell, cells[i].name)
		}
		if len(r.Clocks) != 16 || len(r.Bytes) != 16 || r.Switches <= 0 ||
			r.Counters.FlagSets <= 0 || r.Counters.PutOps <= 0 || r.Counters.GetOps <= 0 {
			t.Errorf("row %d (%s): unfilled field in %+v", i, r.Cell, r)
		}
	}
}

// TestCollectiveDigests runs the grid (under -short, every fifth cell
// and the first of each (algorithm, lines) class, so every size — the
// multi-chunk 503-line cells too — keeps a cell) and compares each cell
// with its committed row exactly. A mismatch prints the row this build
// produces: simulated timing, delivered bytes, op counts or the schedule
// changed, which is a bug unless proven otherwise.
func TestCollectiveDigests(t *testing.T) {
	want := map[string]collectiveDigest{}
	for _, r := range loadCollectiveDigests(t) {
		want[r.Cell] = r
	}
	seen := map[string]bool{}
	for i, cc := range collectiveCells() {
		first := !seen[cc.class]
		seen[cc.class] = true
		if testing.Short() && i%5 != 0 && !first {
			continue
		}
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			t.Parallel()
			if got := cc.run(); got != want[cc.name] {
				out, _ := json.Marshal(got)
				t.Errorf("committed %+v, this build produces\n%s", want[cc.name], out)
			}
		})
	}
}
