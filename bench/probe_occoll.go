package main

import (
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/occoll"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/sim"
	"repro/internal/trace"
)

// occollLines is the golden allreduce's size: 8 KiB.
const occollLines = 256

// probeOccoll drives the one-sided collectives: the blocking AllReduce
// (k=7; at 48 cores its latency is the golden 1617.671 µs) and the same
// reduction issued non-blocking and polled between compute slices.
func probeOccoll(p *probeCtx) {
	p.v["occoll.allreduce_host_us"] = p.batches("probe.occoll.allreduce", func(int) int64 {
		us, sw := p.allreduceRun("OC-AllReduce", occollLines, func(c *rma.Core, port *rcce.Port) func() {
			x := occoll.New(c, port, core.DefaultConfig())
			return func() {
				x.AllReduce(0, occollLines, collective.SumInt64)
				x.Finish()
			}
		})
		p.exact("occoll.allreduce_us", us)
		p.exact("occoll.switches_per_allreduce", float64(sw))
		return 1
	}) / 1e3

	tests := make([]int64, p.n)
	flags := make([]trace.CoreCounters, p.n)
	p.v["occoll.iallreduce_host_us"] = p.batches("probe.occoll.iallreduce", func(int) int64 {
		p.allreduceRun("polled OC-IAllReduce", occollLines, func(c *rma.Core, port *rcce.Port) func() {
			x := occoll.New(c, port, core.DefaultConfig())
			id := c.ID()
			return func() {
				before := c.Chip().Counter[id]
				tests[id] = 0
				r := x.IAllReduce(0, occollLines, collective.SumInt64)
				for tests[id]++; !r.Test(); tests[id]++ {
					c.Compute(2 * sim.Microsecond)
				}
				x.Finish()
				after := c.Chip().Counter[id]
				flags[id] = trace.CoreCounters{FlagWaits: after.FlagWaits - before.FlagWaits, FlagPolls: after.FlagPolls - before.FlagPolls}
			}
		})
		var calls int64
		for _, t := range tests {
			calls += t
		}
		f := trace.Sum(flags)
		p.exact("occoll.tests_per_request", float64(calls)/float64(p.n))
		p.exact("occoll.poll_hit_ratio", float64(f.FlagWaits)/float64(f.FlagWaits+f.FlagPolls))
		return 1
	}) / 1e3
}
