package harness

import (
	"fmt"
	"math"

	"repro/internal/algsel"
	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cell is one measured point of a simulated experiment: a registered
// collective algorithm at one choice and message size on one chip,
// optionally fused with local computation.
type Cell struct {
	Cfg scc.Config // the simulated chip
	N   int        // cores taking part; 0 means every core of Cfg's topology
	Op  string
	// Choice names the registered algorithm and its tunables; OC is the
	// one-sided base configuration the choice resolves against (OC-Bcast's
	// fan-out, buffering and notification ablations live here).
	Choice algsel.Choice
	OC     occore.Config
	Lines  int
	// Overlap issues the collective non-blocking and spends ComputeUs of
	// local work in GrainUs slices (0: one slice), testing the request
	// between slices; otherwise the blocking collective runs first and
	// ComputeUs of work after it.
	Overlap            bool
	ComputeUs, GrainUs float64
}

// newCell is a cell of op on cfg's whole chip running the registered
// algorithm alg over the paper's one-sided configuration at fan-out k (0
// keeps the paper's k = 7). Sweeps set Lines with sized.
func newCell(cfg scc.Config, op string, alg string, k int) Cell {
	oc := occore.DefaultConfig()
	if k > 0 {
		oc.K = k
	}
	return Cell{Cfg: cfg, Op: op, Choice: algsel.Choice{Alg: alg}, OC: oc}
}

func (c Cell) sized(lines int) Cell {
	c.Lines = lines
	return c
}

// Grid measures every cell on its own pooled chip, shards the cells
// across ParallelMap workers, and returns each cell's latency in µs, in
// input order.
func Grid(cells []Cell) []float64 {
	return ParallelMap(len(cells), func(i int) float64 { return measure(cells[i]) })
}

// sweep measures cell(r, c) for every row r and column c in one grid and
// returns the latencies (µs) row by row.
func sweep(rows, cols int, cell func(r, c int) Cell) [][]float64 {
	cells := make([]Cell, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cells = append(cells, cell(r, c))
		}
	}
	lat := Grid(cells)
	out := make([][]float64, rows)
	for r := range out {
		out[r] = lat[r*cols : (r+1)*cols]
	}
	return out
}

// measure runs a cell once by the paper's §6.1 method — one call between
// two barriers on a fresh (uncached) payload region, the op table's
// (workload.Op), timed from the first core's call to the last core's
// return — and returns its latency in µs. §6.1 averages repetitions of a
// noisy measurement; the simulator has no noise, and a released pooled
// chip is as good as a fresh one, so a cell is its *isolated* latency:
// the first call on a chip with no earlier traffic. Repeating a call past
// the MPB contention knee only inherits the first call's penalty ramp, in
// a sequence with no clean cycle (k = 47 at 97 CL: 159, 407, 345, 407 µs).
func measure(c Cell) float64 {
	a, ok := algsel.Lookup(c.Op, c.Choice.Alg)
	if !ok || c.Overlap && a.Issue == nil {
		panic(fmt.Sprintf("harness: no %s algorithm %q to measure", c.Op, c.Choice.Alg))
	}
	n := c.N
	if n == 0 {
		n = c.Cfg.Topology().NumCores()
	}
	chip := rma.AcquireChipN(c.Cfg, n)
	defer rma.ReleaseChip(chip)

	op := workload.OpOf(c.Op)
	// Stage the input's first block on every core that supplies one; the
	// protocols are data-independent, so the collective writes the rest.
	payload := make([]byte, c.Lines*scc.CacheLine)
	for i := range payload {
		payload[i] = byte(i*7 + 13)
	}
	for id := 0; id < n; id++ {
		if off, count := op.InputAt(n, id, 0, c.Lines); count > 0 {
			chip.Private(id).Write(off*scc.CacheLine, payload)
		}
	}

	first, last := sim.Time(math.MaxInt64), sim.Time(0) // the engine runs one core at a time
	algsel.OnChip(chip, c.OC, func(e *algsel.Env) {
		core := e.Core()
		args := algsel.Args{Scratch: op.Region(n, c.Lines) * scc.CacheLine, Lines: c.Lines, Reduce: collective.SumInt64}
		e.Port.Barrier()
		first = min(first, core.Now())
		if c.Overlap {
			r := a.Issue(e, c.Choice, args)
			done := false
			for rem := c.ComputeUs; rem > 0; {
				g := rem
				if c.GrainUs > 0 {
					g = min(g, c.GrainUs)
				}
				core.Compute(sim.Micros(g))
				rem -= g
				done = done || r.Test()
			}
			if !done {
				r.Wait()
			}
		} else {
			e.Exec(a, c.Choice, args)
			if c.ComputeUs > 0 {
				core.Compute(sim.Micros(c.ComputeUs))
			}
		}
		last = max(last, core.Now())
		e.Port.Barrier() // early returners' barrier traffic overlaps the last cores' tail
	})
	return (last - first).Microseconds()
}

// ThroughputMBps converts a broadcast of `lines` cache lines completing
// in latencyUs microseconds to MB/s (10^6 bytes, as Table 2 uses).
func ThroughputMBps(lines int, latencyUs float64) float64 {
	return float64(lines*scc.CacheLine) / latencyUs
}

// sizeLabel formats a cache-line count as a byte size.
func sizeLabel(lines int) string {
	b := lines * scc.CacheLine
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
