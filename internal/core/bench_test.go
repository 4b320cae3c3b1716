package core

import (
	"fmt"
	"testing"

	"repro/internal/rma"
	"repro/internal/scc"
)

// BenchmarkBcast48 is the layer's microbenchmark: one OC-Bcast from core
// 0 on the paper's 48-core chip per iteration — one chunk exactly (96
// lines) and a four-chunk double-buffered pipeline (300) — all b.N of
// them inside one run of a warmed pooled chip, so chip construction and
// first-use growth stay out of the figure: host time per broadcast is
// host time per emitted and interpreted pipeline step.
func BenchmarkBcast48(b *testing.B) {
	for _, lines := range []int{96, 300} {
		lines := lines // go.mod is pre-1.22: per-iteration copy
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			chip := rma.AcquireChipN(scc.DefaultConfig(), scc.NumCores)
			defer rma.ReleaseChip(chip)
			bcast := func(reps int) {
				chip.Private(0).Write(0, pattern(lines*scc.CacheLine, 1))
				chip.Run(func(c *rma.Core) {
					bc := NewBroadcaster(c, DefaultConfig())
					for i := 0; i < reps; i++ {
						bc.Bcast(0, 0, lines)
					}
				})
			}
			bcast(1) // warm scratch buffers, extents, watcher lists
			if !chip.Reset() {
				b.Fatal("Reset refused")
			}
			b.ReportAllocs()
			b.ResetTimer()
			bcast(b.N)
		})
	}
}
