package harness

import (
	"fmt"

	"repro/internal/algsel"
	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Cell is one measured point of a simulated experiment: a registered
// collective algorithm at one choice and message size on one chip,
// optionally fused with local computation.
type Cell struct {
	Cfg scc.Config // the simulated chip
	N   int        // cores taking part; 0 means every core of Cfg's topology
	Op  algsel.Op
	// Choice names the registered algorithm and its tunables; OC is the
	// one-sided base configuration the choice resolves against (OC-Bcast's
	// fan-out, buffering and notification ablations live here).
	Choice algsel.Choice
	OC     occore.Config
	Lines  int
	Reps   int
	// Overlap issues the collective non-blocking and spends ComputeUs of
	// local work in GrainUs slices (0: one slice), testing the request
	// between slices; otherwise the blocking collective runs first and
	// ComputeUs of work after it.
	Overlap            bool
	ComputeUs, GrainUs float64
}

// newCell is a cell of op on cfg's whole chip running the registered
// algorithm alg over the paper's one-sided configuration at fan-out k (0
// keeps the paper's k = 7). Sweeps set Lines and Reps with sized.
func newCell(cfg scc.Config, op algsel.Op, alg string, k int) Cell {
	oc := occore.DefaultConfig()
	if k > 0 {
		oc.K = k
	}
	return Cell{Cfg: cfg, Op: op, Choice: algsel.Choice{Alg: alg}, OC: oc}
}

func (c Cell) sized(lines, reps int) Cell {
	c.Lines, c.Reps = lines, reps
	return c
}

// Grid measures every cell on its own pooled chip, shards the cells
// across ParallelMap workers, and returns each cell's mean latency in µs,
// in input order.
func Grid(cells []Cell) []float64 {
	return ParallelMap(len(cells), func(i int) float64 { return mean(measure(cells[i])) })
}

// sweep measures cell(r, c) for every row r and column c in one grid and
// returns the mean latencies (µs) row by row.
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

// measure runs a cell by the paper's §6.1 method and returns each
// repetition's latency in µs. Repetitions are separated by barriers, each
// works on a fresh (uncached) payload region — one block of Lines cache
// lines for a broadcast or reduction, n+1 for the block operations — and
// each is timed from the first core's call to the last core's return.
func measure(c Cell) []float64 {
	a, ok := algsel.Lookup(c.Op, c.Choice.Alg)
	if !ok || c.Overlap && a.Issue == nil {
		panic(fmt.Sprintf("harness: no %s algorithm %q to measure", c.Op, c.Choice.Alg))
	}
	n, reps := c.N, max(c.Reps, 1)
	if n == 0 {
		n = c.Cfg.Topology().NumCores()
	}
	chip := rma.AcquireChipN(c.Cfg, n)
	defer rma.ReleaseChip(chip)

	block := c.Lines * scc.CacheLine
	stride := block
	switch c.Op {
	case algsel.OpScatter, algsel.OpGather, algsel.OpAllGather:
		stride *= n + 1
	}
	// Stage what each repetition's call reads, one block per core: its own
	// contribution (block id of a gather or allgather, block 0 of a
	// reduction) or, for a broadcast or scatter, the root's first block.
	// The protocols are data-independent and nothing reads the bytes back,
	// so the rest of a region is left to the collective to write.
	payload := make([]byte, block)
	for i := range payload {
		payload[i] = byte(i*7 + 13)
	}
	for id := 0; id < n; id++ {
		b := 0
		switch c.Op {
		case algsel.OpBcast, algsel.OpScatter:
			if id > 0 {
				continue
			}
		case algsel.OpGather, algsel.OpAllGather:
			b = id
		}
		for it := 0; it < reps; it++ {
			chip.Private(id).Write(it*stride+b*block, payload)
		}
	}

	starts := make([]sim.Time, reps*n)
	returns := make([]sim.Time, reps*n)
	algsel.OnChip(chip, c.OC, func(e *algsel.Env) {
		core := e.Core()
		args := algsel.Args{Scratch: reps * stride, Lines: c.Lines, Reduce: collective.SumInt64}
		for it := 0; it < reps; it++ {
			args.Addr = it * stride
			e.Port.Barrier()
			starts[it*n+core.ID()] = core.Now()
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
			returns[it*n+core.ID()] = core.Now()
		}
	})

	out := make([]float64, reps)
	for it := range out {
		first, last := starts[it*n], returns[it*n]
		for id := 1; id < n; id++ {
			first, last = min(first, starts[it*n+id]), max(last, returns[it*n+id])
		}
		out[it] = (last - first).Microseconds()
	}
	return out
}

func mean(ls []float64) float64 {
	var sum float64
	for _, l := range ls {
		sum += l
	}
	return sum / float64(len(ls))
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
