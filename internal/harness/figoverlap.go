package harness

import (
	"fmt"

	"repro/internal/scc"
	"repro/internal/workload"
)

// fig-overlap measures what the paper's one-sided decoupling actually
// buys an application: a blocking AllReduce serializes communication and
// computation, while the non-blocking IAllReduce lets each core spend the
// collective's flag-wait idle time on its own work, polling the progress
// engine between compute slices. The experiment sweeps message size
// against polling granularity and reports the effective speedup of
// overlap, total(blocking + compute) / total(overlapped).

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
// with the matching blocking baseline attached. Each pass is one sharded
// grid. The achievable speedup is bounded by two regimes: the
// core's own protocol work (combining gets, staging puts) is CPU-driven
// and never overlaps, so W ≫ T degenerates to 1x, while W below T minus
// that busy time hides entirely inside the collective's critical path,
// approaching 1 + W/T.
func OverlapSweep(cfg scc.Config, n, k int, sizes []int, ratios, grains []float64) []OverlapPoint {
	cell := func(lines int) Cell {
		c := newCell(cfg, workload.OpAllReduce, "oc", k).sized(lines)
		c.N = n
		return c
	}
	// Pass 1: bare collective latency per size.
	var cells []Cell
	for _, lines := range sizes {
		cells = append(cells, cell(lines))
	}
	collUs := Grid(cells)

	// Pass 2: blocking baselines and overlapped runs, one grid.
	cells = nil
	for i, lines := range sizes {
		for _, ratio := range ratios {
			c := cell(lines)
			c.ComputeUs = collUs[i] * ratio
			cells = append(cells, c)
			for _, gf := range grains {
				c.Overlap, c.GrainUs = true, c.ComputeUs*gf
				cells = append(cells, c)
			}
		}
	}
	lat := Grid(cells)

	var out []OverlapPoint
	stride := 1 + len(grains)
	for i, lines := range sizes {
		for ri, ratio := range ratios {
			base := (i*len(ratios) + ri) * stride
			for j := base + 1; j < base+stride; j++ {
				out = append(out, OverlapPoint{
					Lines:      lines,
					CollUs:     collUs[i],
					Ratio:      ratio,
					GrainUs:    cells[j].GrainUs,
					BlockingUs: lat[base],
					OverlapUs:  lat[j],
					Speedup:    lat[base] / lat[j],
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
func FigOverlap(cfg scc.Config, effort int) ([]*Table, error) {
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
	// The points come per (size, ratio), one per grain.
	for i := 0; i < len(points); i += len(defaultOverlapGrains) {
		ps := points[i : i+len(defaultOverlapGrains)]
		t.AddRow(sizeLabel(ps[0].Lines), ps[0].Lines, ps[0].CollUs, ps[0].Ratio, ps[0].BlockingUs,
			ps[0].OverlapUs, ps[1].OverlapUs, ps[2].OverlapUs,
			fmt.Sprintf("%.2fx", max(ps[0].Speedup, ps[1].Speedup, ps[2].Speedup)))
	}
	return []*Table{t}, nil
}
