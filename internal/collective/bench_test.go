package collective

import (
	"testing"

	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
)

// BenchmarkCollective is the layer's host cost per call: one 8-line call
// of an algorithm per iteration, all b.N of them inside one run of a
// warmed pooled 8-core chip, so chip construction, goroutine spawns and
// the per-peer tables' first growth stay out of the figure (the steady
// state allocates nothing). resumes/op is how often the engine handed a
// body goroutine the control token per call: a collective is one machine
// section, so it is about one per core or less.
func BenchmarkCollective(b *testing.B) {
	const n, lines = 8, 8
	scratch := n * lines * scc.CacheLine
	for _, bc := range []struct {
		name string
		call func(c *Comm)
	}{
		{"binomial", func(c *Comm) { c.BcastBinomial(0, 0, lines) }},
		{"sag", func(c *Comm) { c.BcastScatterAllgather(0, 0, lines) }},
		{"reduce", func(c *Comm) { c.Reduce(0, 0, scratch, lines, SumInt64) }},
		{"gather", func(c *Comm) { c.Gather(0, 0, lines) }},
		{"scatter", func(c *Comm) { c.Scatter(0, 0, lines) }},
		{"allgather", func(c *Comm) { c.AllGather(0, lines) }},
		{"rabenseifner", func(c *Comm) { c.AllReduceRabenseifner(0, scratch, lines, SumInt64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			chip := rma.AcquireChipN(scc.DefaultConfig(), n)
			defer rma.ReleaseChip(chip)
			ports, comms := make([]rcce.Port, n), make([]Comm, n)
			iters := 1
			body := func(core *rma.Core) {
				p, c := &ports[core.ID()], &comms[core.ID()]
				if c.port == nil {
					p.Init(core)
					c.Init(p)
				}
				for i := 0; i < iters; i++ {
					bc.call(c)
				}
			}
			chip.Run(body)
			if !chip.Reset() {
				b.Fatal("Reset refused")
			}
			iters = b.N
			r0 := chip.Engine.Resumes()
			b.ReportAllocs()
			b.ResetTimer()
			chip.Run(body)
			b.StopTimer()
			b.ReportMetric(float64(chip.Engine.Resumes()-r0)/float64(b.N), "resumes/op")
		})
	}
}
