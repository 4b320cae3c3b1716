package occoll

import (
	"testing"

	"repro/internal/collective"
	occore "repro/internal/core"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// The layer's microbenchmarks: one 256-line (8 KiB, three-chunk)
// AllReduce on the paper's 48-core chip per iteration, all b.N of them
// inside one chip run so chip construction stays out of the figure —
// host time per collective is host time per pipeline step times a fixed
// step count.
func benchAllReduce48(b *testing.B, op func(c *rma.Core, x *Collectives)) {
	const n, lines = 48, 256
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	fillPayload(chip, n, 0, lines*scc.CacheLine, 1)
	b.ReportAllocs()
	b.ResetTimer()
	chip.Run(func(c *rma.Core) {
		x := New(c, rcce.NewPort(c), occore.DefaultConfig())
		for i := 0; i < b.N; i++ {
			op(c, x)
		}
	})
}

// BenchmarkAllReduce48 is the blocking form: issue + Wait.
func BenchmarkAllReduce48(b *testing.B) {
	benchAllReduce48(b, func(_ *rma.Core, x *Collectives) {
		x.AllReduce(0, 256, collective.SumInt64)
	})
}

// BenchmarkPolledAllReduce48 completes the request with Test between
// 2 µs compute slices: the probe-and-stop path.
func BenchmarkPolledAllReduce48(b *testing.B) {
	benchAllReduce48(b, func(c *rma.Core, x *Collectives) {
		for r := x.IAllReduce(0, 256, collective.SumInt64); !r.Test(); {
			c.Compute(2 * sim.Microsecond)
		}
	})
}
