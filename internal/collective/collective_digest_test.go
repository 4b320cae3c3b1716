package collective_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/oracle"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Every two-sided collective is pinned to committed digests: each cell of
// the grid below must deliver the host reference's bytes and reproduce
// its row of testdata/collective_digests.json exactly. The rows were
// recorded at the last commit whose collectives sequenced their sends,
// receives, turn grants, shape fences and combines in Go control flow,
// one machine section per call (f1068b5). The grid crosses every
// algorithm with roots {0, n−1, n/2}, sizes around the 251/252-line RCCE
// chunk boundary and {2, 3, 8, 48} cores, plus back-to-back sequences
// whose pairing graphs differ, so each crosses a shape fence.

const digestFile = "testdata/collective_digests.json"

// algorithm is one collective of the grid: op is its row of the op
// table, fold its reduction and call runs it on a Comm; a reduction's
// scratch area of n·lines sits above its region.
type algorithm struct {
	name string
	op   string
	fold collective.ReduceOp
	call func(c *collective.Comm, n, root, lines int)
}

func scratch(n, lines int) int { return n * lines * scc.CacheLine }

var (
	sum = collective.SumInt64

	gridAlgorithms = []algorithm{
		{"binomial", workload.OpBcast, nil, func(c *collective.Comm, _, root, lines int) { c.BcastBinomial(root, 0, lines) }},
		{"naive", workload.OpBcast, nil, func(c *collective.Comm, _, root, lines int) { c.BcastNaive(root, 0, lines) }},
		{"sag", workload.OpBcast, nil, func(c *collective.Comm, _, root, lines int) { c.BcastScatterAllgather(root, 0, lines) }},
		{"sag1s", workload.OpBcast, nil, func(c *collective.Comm, _, root, lines int) { c.BcastScatterAllgatherOneSided(root, 0, lines) }},
		{"reduce", workload.OpReduce, sum, func(c *collective.Comm, n, root, lines int) {
			c.Reduce(root, 0, scratch(n, lines), lines, sum)
		}},
		{"gather", workload.OpGather, nil, func(c *collective.Comm, _, root, lines int) { c.Gather(root, 0, lines) }},
		{"scatter", workload.OpScatter, nil, func(c *collective.Comm, _, root, lines int) { c.Scatter(root, 0, lines) }},
		{"allreduce", workload.OpAllReduce, collective.MaxInt64, func(c *collective.Comm, n, _, lines int) {
			c.AllReduce(0, scratch(n, lines), lines, collective.MaxInt64)
		}},
		{"allgather", workload.OpAllGather, nil, func(c *collective.Comm, _, _, lines int) { c.AllGather(0, lines) }},
		{"rabenseifner", workload.OpAllReduce, sum, func(c *collective.Comm, n, _, lines int) {
			c.AllReduceRabenseifner(0, scratch(n, lines), lines, sum)
		}},
	}
	digestLines = []int{1, 32, 251, 252, 503}
	digestCores = []int{2, 3, 8, 48}

	// shapeSequences run back to back on one port; every change of
	// pairing graph (class or root) crosses the shape fence, and the
	// repeated binomial broadcast does not. want is the last call's
	// reference on inputs the earlier calls leave known.
	shapeSequences = []struct {
		name string
		run  func(c *collective.Comm, n, lines int)
		want func(n, lines int, staged [][]byte) [][]oracle.Span
	}{
		{"gather0-gather1", func(c *collective.Comm, _, lines int) {
			c.Gather(0, 0, lines)
			c.Gather(1, 0, lines)
		}, func(n, lines int, staged [][]byte) [][]oracle.Span {
			return ref(workload.OpGather, n, 1, lines, staged)
		}},
		{"gather-allgather", func(c *collective.Comm, _, lines int) {
			c.Gather(0, 0, lines)
			c.AllGather(0, lines)
		}, func(n, lines int, staged [][]byte) [][]oracle.Span {
			return ref(workload.OpAllGather, n, 0, lines, staged)
		}},
		{"binomial-binomial-sag", func(c *collective.Comm, n, lines int) {
			c.BcastBinomial(n-1, 0, lines)
			c.BcastBinomial(n-1, 0, lines)
			c.BcastScatterAllgather(0, 0, lines)
		}, func(n, lines int, staged [][]byte) [][]oracle.Span {
			return ref(workload.OpBcast, n, n-1, lines, staged)
		}},
		{"reduce-scatter-naive", func(c *collective.Comm, n, lines int) {
			c.Reduce(n/2, 0, scratch(n, lines), lines, sum)
			c.Scatter(0, 0, lines)
			c.BcastNaive(1, 0, lines)
		}, nil},
		{"rabenseifner-allreduce-sag1s", func(c *collective.Comm, n, lines int) {
			c.AllReduceRabenseifner(0, scratch(n, lines), lines, sum)
			c.AllReduce(0, scratch(n, lines), lines, sum)
			c.BcastScatterAllgatherOneSided(n-1, 0, lines)
		}, func(n, lines int, staged [][]byte) [][]oracle.Span {
			once := make([][]byte, n)
			for id, s := range ref(workload.OpAllReduce, n, 0, lines, staged) {
				once[id] = s[0].Want
			}
			return ref(workload.OpAllReduce, n, 0, lines, once)
		}},
	}
)

// ref is the host reference of op at address 0, reductions summing.
func ref(op string, n, root, lines int, staged [][]byte) [][]oracle.Span {
	return oracle.Reference(workload.OpOf(op), n, root, lines, 0, staged, sum)
}

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

// cell stages span lines of seeded bytes on each of n cores and runs
// body on a Comm after a skew that staggers the cores' arrival, so some
// waits block and some are already satisfied.
func cell(name, class string, n, span int, body func(c *collective.Comm)) oracle.Cell {
	return oracle.Cell{
		Name: name, Class: class, N: n,
		Stage: func(id int) []byte {
			b := make([]byte, span*scc.CacheLine)
			for i := range b {
				b[i] = byte(i*13 + id*31 + 5)
			}
			return b
		},
		Body: func(c *rma.Core) {
			cm := collective.NewComm(rcce.NewPort(c))
			c.Compute(sim.Duration(c.ID()%5) * 700 * sim.Nanosecond)
			body(cm)
		},
	}
}

func collectiveCells() []oracle.Cell {
	var cells []oracle.Cell
	for _, a := range gridAlgorithms {
		op := workload.OpOf(a.op)
		for _, lines := range digestLines {
			for _, n := range digestCores {
				roots := []int{0}
				if op.Rooted {
					roots = digestRoots(n)
				}
				for _, root := range roots {
					a, n, root, lines := a, n, root, lines // go.mod is pre-1.22: per-iteration copies
					name := fmt.Sprintf("%s/l%d/n%d", a.name, lines, n)
					if op.Rooted {
						name = fmt.Sprintf("%s/root%d/l%d/n%d", a.name, root, lines, n)
					}
					span := op.Region(n, lines)
					if a.fold != nil {
						span += n * lines
					}
					c := cell(name, fmt.Sprintf("%s/l%d", a.name, lines), n, span,
						func(c *collective.Comm) { a.call(c, n, root, lines) })
					c.Want = func(staged [][]byte) [][]oracle.Span {
						return oracle.Reference(op, n, root, lines, 0, staged, a.fold)
					}
					cells = append(cells, c)
				}
			}
		}
	}
	for _, s := range shapeSequences {
		for _, lines := range []int{1, 252} {
			for _, n := range []int{3, 8} {
				s, n, lines := s, n, lines
				c := cell(fmt.Sprintf("seq/%s/l%d/n%d", s.name, lines, n), fmt.Sprintf("seq/%s/l%d", s.name, lines),
					n, (n+1)*lines, func(c *collective.Comm) { s.run(c, n, lines) })
				if s.want != nil {
					c.Want = func(staged [][]byte) [][]oracle.Span { return s.want(n, lines, staged) }
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// TestCollectiveDigestSchema: a truncated file cannot make the comparison vacuous.
func TestCollectiveDigestSchema(t *testing.T) {
	if _, err := oracle.Load(digestFile, collectiveCells()); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveDigests holds every cell to its verdict and its committed
// row (oracle.Check).
func TestCollectiveDigests(t *testing.T) { oracle.Check(t, digestFile, collectiveCells()) }
