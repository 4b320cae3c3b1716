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

// AllReduce variants measured by fig-allreduce.
//
//	oc        one-sided OC-AllReduce (internal/occoll), fan-out k
//	twosided  binomial two-sided Reduce + binomial two-sided Bcast
//	hybrid    two-sided Reduce + OC-Bcast of the result (the composition
//	          the paper's §7 suggests; the pre-occoll public AllReduce)
const (
	VariantOC       = "oc"
	VariantTwoSided = "twosided"
	VariantHybrid   = "hybrid"
)

// MeasureAllReduce runs `reps` allreduces (sum) of `lines` cache lines on
// n cores and returns per-repetition latencies in microseconds, from the
// first core's call to the last core's return — §6.1 methodology:
// barrier-separated repetitions, each on a fresh payload offset.
func MeasureAllReduce(cfg scc.Config, variant string, k, n, lines, reps int) []float64 {
	return measureCollective(cfg, variant, k, n, lines, reps, false)
}

// measureCollective is MeasureAllReduce, or with reduceOnly the same
// without the broadcast half: OC-Reduce vs the two-sided binomial
// reduction (variant "hybrid" is then identical to "twosided").
func measureCollective(cfg scc.Config, variant string, k, n, lines, reps int, reduceOnly bool) []float64 {
	if reps <= 0 {
		reps = 3
	}
	chip := rma.AcquireChipN(cfg, n)
	defer rma.ReleaseChip(chip)

	// Every core contributes a distinct payload per repetition.
	msgBytes := lines * scc.CacheLine
	for c := 0; c < n; c++ {
		payload := make([]byte, msgBytes)
		for i := range payload {
			payload[i] = byte(i*7 + c*13 + 5)
		}
		for it := 0; it < reps; it++ {
			chip.Private(c).Write(it*msgBytes, payload)
		}
	}
	scratchBase := (reps + 1) * msgBytes

	starts := make([][]sim.Time, reps)
	returns := make([][]sim.Time, reps)
	for it := range returns {
		starts[it] = make([]sim.Time, n)
		returns[it] = make([]sim.Time, n)
	}

	// Each variant is the registered algorithm of its name; reducing only,
	// the hybrid's reduction is the two-sided one.
	op, name := algsel.OpAllReduce, variant
	if reduceOnly {
		op = algsel.OpReduce
		if name == VariantHybrid {
			name = VariantTwoSided
		}
	}
	a, ok := algsel.Lookup(op, name)
	if !ok {
		panic(fmt.Sprintf("harness: unknown allreduce variant %q", variant))
	}
	occfg := occore.DefaultConfig()
	occfg.K = k
	algsel.OnChip(chip, occfg, func(e *algsel.Env) {
		c := e.Core()
		for it := 0; it < reps; it++ {
			e.Port.Barrier()
			starts[it][c.ID()] = c.Now()
			e.Exec(a, algsel.Choice{Alg: name}, algsel.Args{
				Addr: it * msgBytes, Scratch: scratchBase, Lines: lines, Reduce: collective.SumInt64,
			})
			returns[it][c.ID()] = c.Now()
		}
	})

	out := make([]float64, reps)
	for it := 0; it < reps; it++ {
		out[it] = spanUs(starts[it], returns[it])
	}
	return out
}

// MeanAllReduce averages MeasureAllReduce. It is the one-cell case of
// MeanAllReduceGrid, so single points and sweeps share the same runner.
func MeanAllReduce(cfg scc.Config, variant string, k, n, lines, reps int) float64 {
	return MeanAllReduceGrid(cfg, n, []AllReduceCell{{Variant: variant, K: k, Lines: lines, Reps: reps}})[0]
}

func mean(ls []float64) float64 {
	var sum float64
	for _, l := range ls {
		sum += l
	}
	return sum / float64(len(ls))
}

// FigAllReduce measures allreduce latency across payload sizes and
// fan-outs: one-sided OC-AllReduce (k = 2, 3, 7) against the two-sided
// Reduce+Bcast composition and the hybrid (two-sided reduce, OC-Bcast) —
// the paper's §7 extension evaluated with §6.1's methodology.
func FigAllReduce(cfg scc.Config, effort int) *Table {
	t := &Table{
		Title: "fig-allreduce: AllReduce latency (µs), one-sided vs two-sided, 48 cores",
		Columns: []string{"size", "lines", "OC k=2", "OC k=3", "OC k=7",
			"2-sided", "hybrid", "speedup (2-sided/best-OC)"},
		Notes: []string{
			"OC k=x: occoll AllReduce (OC-Reduce + OC-Bcast, one tree, one-sided RMA only).",
			"2-sided: binomial RCCE reduce + binomial RCCE broadcast.",
			"hybrid: binomial RCCE reduce + OC-Bcast k=7 (the §7 composition).",
		},
	}
	reps := 1 + effort
	sizes := []int{1, 8, 32, 96, 256, 512, 1024}
	variants := []AllReduceCell{
		{Variant: VariantOC, K: 2}, {Variant: VariantOC, K: 3}, {Variant: VariantOC, K: 7},
		{Variant: VariantTwoSided, K: 7}, {Variant: VariantHybrid, K: 7},
	}
	var cells []AllReduceCell
	for _, lines := range sizes {
		for _, v := range variants {
			v.Lines, v.Reps = lines, reps
			cells = append(cells, v)
		}
	}
	lat := MeanAllReduceGrid(cfg, scc.NumCores, cells)
	for si, lines := range sizes {
		row := lat[si*len(variants) : (si+1)*len(variants)]
		oc, ts, hy := row[:3], row[3], row[4]
		best := oc[0]
		for _, v := range oc[1:] {
			if v < best {
				best = v
			}
		}
		t.AddRow(sizeLabel(lines), lines, oc[0], oc[1], oc[2], ts, hy,
			fmt.Sprintf("%.2fx", ts/best))
	}
	return t
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
