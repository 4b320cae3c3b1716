package main

import (
	"repro/internal/rcce"
	"repro/internal/rma"
)

// probeRCCE drives the two-sided substrate: a send/recv pair between two
// cores and the chip-wide barrier.
func probeRCCE(p *probeCtx) {
	p.batches("probe.rcce.sendrecv", func(int) int64 {
		chip := rma.AcquireChipN(p.cfg, p.n)
		defer rma.ReleaseChip(chip)
		chip.Run(func(c *rma.Core) {
			port := rcce.NewPort(c)
			switch c.ID() {
			case 0:
				s := p.tr.begin("rcce.SendRecv", 0)
				for i := 0; i < callsPerBatch; i++ {
					port.Send(1, i*extentLines*lineBytes, extentLines)
				}
				p.tr.end(s, callsPerBatch*extentLines)
			case 1:
				for i := 0; i < callsPerBatch; i++ {
					port.Recv(0, i*extentLines*lineBytes, extentLines)
				}
			}
		})
		return callsPerBatch * extentLines
	})
	p.v["rcce.ns_per_line_sendrecv"] = p.callSpans("rcce.SendRecv")

	// Core 0 times the barriers after the first, which absorbs spin-up.
	const barriers = 16
	p.batches("probe.rcce.barrier", func(int) int64 {
		chip := rma.AcquireChipN(p.cfg, p.n)
		defer rma.ReleaseChip(chip)
		chip.Run(func(c *rma.Core) {
			port := rcce.NewPort(c)
			port.Barrier()
			s := -1
			t0 := c.Now()
			if c.ID() == 0 {
				s = p.tr.begin("rcce.Barrier", 0)
			}
			for i := 0; i < barriers; i++ {
				port.Barrier()
			}
			if c.ID() == 0 {
				p.tr.end(s, barriers)
				p.exact("rcce.barrier_us", (c.Now()-t0).Microseconds()/barriers)
			}
		})
		return barriers
	})
	p.v["rcce.barrier_host_us"] = p.callSpans("rcce.Barrier") / 1e3
}
