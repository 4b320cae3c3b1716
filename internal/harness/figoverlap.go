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

// fig-overlap measures what the paper's one-sided decoupling actually
// buys an application: a blocking AllReduce serializes communication and
// computation, while the non-blocking IAllReduce lets each core spend the
// collective's flag-wait idle time on its own work, polling the progress
// engine between compute slices. The experiment sweeps message size
// against polling granularity and reports the effective speedup of
// overlap, total(blocking + compute) / total(overlapped).

// OverlapCell is one cell of the overlap sweep: an AllReduce of Lines
// cache lines fused with ComputeUs microseconds of independent local work
// per core. With Overlap set the work is interleaved with the progress
// engine in GrainUs slices; otherwise the collective completes first.
type OverlapCell struct {
	K, Lines  int
	ComputeUs float64
	GrainUs   float64
	Overlap   bool
}

// MeasureOverlap runs one overlap cell on n cores and returns the
// makespan in microseconds: from the first core entering the phase to the
// last core holding both the allreduce result and its finished compute.
// ComputeUs of 0 measures the bare collective.
func MeasureOverlap(cfg scc.Config, n int, cell OverlapCell) float64 {
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)
	msgBytes := cell.Lines * scc.CacheLine
	for c := 0; c < n; c++ {
		payload := make([]byte, msgBytes)
		for i := range payload {
			payload[i] = byte(i*11 + c*17 + 3)
		}
		chip.Private(c).Write(0, payload)
	}
	occfg := occore.DefaultConfig()
	occfg.K = cell.K

	starts := make([]sim.Time, n)
	returns := make([]sim.Time, n)
	args := algsel.Args{Lines: cell.Lines, Reduce: collective.SumInt64}
	algsel.OnChip(chip, occfg, func(e *algsel.Env) {
		c := e.Core()
		e.Port.Barrier()
		starts[c.ID()] = c.Now()
		switch {
		case cell.Overlap:
			r := e.Issue(algsel.OpAllReduce, args)
			rem, done := cell.ComputeUs, false
			for rem > 0 {
				g := cell.GrainUs
				if g > rem {
					g = rem
				}
				c.Compute(sim.Micros(g))
				rem -= g
				if !done && r.Test() {
					done = true
				}
			}
			if !done {
				r.Wait()
			}
		default:
			e.Run(algsel.OpAllReduce, algsel.OneSided, args)
			if cell.ComputeUs > 0 {
				c.Compute(sim.Micros(cell.ComputeUs))
			}
		}
		returns[c.ID()] = c.Now()
	})

	return spanUs(starts, returns)
}

// OverlapGrid evaluates a slice of overlap cells, sharded across CPUs
// with ParallelMap like the other sweep grids; results are byte-identical
// to sequential evaluation.
func OverlapGrid(cfg scc.Config, n int, cells []OverlapCell) []float64 {
	return ParallelMap(len(cells), func(i int) float64 {
		return MeasureOverlap(cfg, n, cells[i])
	})
}

// OverlapPoint summarizes one (size, compute load, grain) comparison.
type OverlapPoint struct {
	Lines      int
	CollUs     float64 // bare blocking AllReduce latency T
	Ratio      float64 // compute load W as a fraction of T
	GrainUs    float64 // polling granularity of the overlapped run
	BlockingUs float64 // blocking collective + compute, serialized
	OverlapUs  float64 // non-blocking collective interleaved with compute
	Speedup    float64 // BlockingUs / OverlapUs
}

// OverlapSweep measures, for each message size, the bare collective
// latency T, then compute loads W = ratio·T overlapped at the given grain
// fractions of W — returning one OverlapPoint per (size, ratio, grain)
// with the matching blocking baseline attached. All cells run through one
// sharded grid. The achievable speedup is bounded by two regimes: the
// core's own protocol work (combining gets, staging puts) is CPU-driven
// and never overlaps, so W ≫ T degenerates to 1x, while W below T minus
// that busy time hides entirely inside the collective's critical path,
// approaching 1 + W/T.
func OverlapSweep(cfg scc.Config, n, k int, sizes []int, ratios, grains []float64) []OverlapPoint {
	// Pass 1: bare collective latency per size.
	bare := make([]OverlapCell, len(sizes))
	for i, lines := range sizes {
		bare[i] = OverlapCell{K: k, Lines: lines}
	}
	collUs := OverlapGrid(cfg, n, bare)

	// Pass 2: blocking baselines and overlapped runs, one grid.
	var cells []OverlapCell
	for i, lines := range sizes {
		for _, ratio := range ratios {
			w := collUs[i] * ratio
			cells = append(cells, OverlapCell{K: k, Lines: lines, ComputeUs: w})
			for _, gf := range grains {
				cells = append(cells, OverlapCell{
					K: k, Lines: lines, ComputeUs: w, GrainUs: w * gf, Overlap: true,
				})
			}
		}
	}
	lat := OverlapGrid(cfg, n, cells)

	var out []OverlapPoint
	stride := 1 + len(grains)
	for i, lines := range sizes {
		for ri, ratio := range ratios {
			base := (i*len(ratios) + ri) * stride
			blocking := lat[base]
			for j, gf := range grains {
				w := collUs[i] * ratio
				out = append(out, OverlapPoint{
					Lines:      lines,
					CollUs:     collUs[i],
					Ratio:      ratio,
					GrainUs:    w * gf,
					BlockingUs: blocking,
					OverlapUs:  lat[base+1+j],
					Speedup:    blocking / lat[base+1+j],
				})
			}
		}
	}
	return out
}

// Default fig-overlap sweep axes: compute loads as fractions of the bare
// collective latency T, and polling granularities as fractions of the
// compute load W.
var (
	defaultOverlapRatios = []float64{0.5, 1.0}
	defaultOverlapGrains = []float64{1.0 / 4, 1.0 / 16, 1.0 / 64}
)

// FigOverlap sweeps compute load and polling granularity against message
// size for the blocking vs non-blocking AllReduce on the default chip:
// per size, compute loads of W = T/2 and W = T (T the bare AllReduceOC
// latency), each polled at W/4, W/16 and W/64 slices. The experiment is
// fully deterministic, so effort only gates the largest size.
func FigOverlap(cfg scc.Config, effort int) *Table {
	sizes := []int{32, 96, 256}
	if effort > 1 {
		sizes = append(sizes, 1024)
	}
	points := OverlapSweep(cfg, scc.NumCores, 7, sizes, defaultOverlapRatios, defaultOverlapGrains)

	t := &Table{
		Title: "fig-overlap: communication/computation overlap, blocking vs non-blocking AllReduce, 48 cores",
		Columns: []string{"size", "lines", "coll µs", "W/T", "block coll+comp µs",
			"ovl g=W/4", "ovl g=W/16", "ovl g=W/64", "best speedup"},
		Notes: []string{
			"T = bare AllReduceOC latency for that size; per-core compute load W = (W/T)·T.",
			"block: AllReduceOC then Compute(W), serialized.",
			"ovl g: IAllReduceOC issued first, W computed in g-sized slices with Test polls between slices.",
			"best speedup: (blocking total) / (best overlapped total). W below T minus the core's own",
			"protocol busy time hides inside the collective's critical path, approaching 1 + W/T.",
		},
	}
	perRatio := len(defaultOverlapGrains)
	for i, lines := range sizes {
		for ri, ratio := range defaultOverlapRatios {
			ps := points[(i*len(defaultOverlapRatios)+ri)*perRatio : (i*len(defaultOverlapRatios)+ri+1)*perRatio]
			best := ps[0].Speedup
			for _, p := range ps[1:] {
				if p.Speedup > best {
					best = p.Speedup
				}
			}
			t.AddRow(sizeLabel(lines), lines, ps[0].CollUs, ratio, ps[0].BlockingUs,
				ps[0].OverlapUs, ps[1].OverlapUs, ps[2].OverlapUs,
				fmt.Sprintf("%.2fx", best))
		}
	}
	return t
}
