package algsel

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/workload"
)

// BenchmarkDispatch is the selection layer's microbenchmark: one 1-line
// AllReduce through Env.Run per iteration — policy resolution, the api
// span check and the algorithm the policy picks — all b.N of them inside
// one run of a warmed pooled 8-core chip. The timer and the allocation
// count cover only the loop, between two barriers, so chip and stack
// set-up stay out of the figure: steady-state dispatch allocates nothing
// (0 allocs/op).
func BenchmarkDispatch(b *testing.B) {
	const n = 8
	cfg := scc.DefaultConfig()
	base := core.DefaultConfig()
	args := Args{Lines: 1, Scratch: 2 * scc.CacheLine, Reduce: collective.SumInt64}
	for _, pc := range []struct {
		name   string
		policy Policy
	}{
		{"compat", Policy{}},
		{"auto", Policy{Name: "auto", Plan: TuneCached(cfg.Params, cfg.Topology(), n, base)}},
	} {
		b.Run("policy="+pc.name, func(b *testing.B) {
			run := func(iters int, timed bool) {
				chip := rma.AcquireChipN(cfg, n)
				defer rma.ReleaseChip(chip)
				envs := make([]Env, n)
				var sh Shared
				sh.Init(n)
				lay, _ := base.Layout()
				chip.Run(func(c *rma.Core) {
					e := &envs[c.ID()]
					e.Init(c, base, lay, pc.policy, &sh)
					e.Run(workload.OpAllReduce, Generic, args) // sizes per-run buffers
					e.Port.Barrier()
					if timed && c.ID() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < iters; i++ {
						e.Run(workload.OpAllReduce, Generic, args)
					}
					e.Port.Barrier()
					if timed && c.ID() == 0 {
						b.StopTimer()
					}
					e.Finish()
				})
			}
			run(1, false) // warm the chip pool
			b.ReportAllocs()
			run(b.N, true)
		})
	}
}
