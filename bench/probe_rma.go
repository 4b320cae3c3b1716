package main

import (
	"fmt"

	"repro/internal/rma"
)

// probeRMA builds chips and drives the one-sided primitives between two
// cores of a chip of the workload's size.
func probeRMA(p *probeCtx) {
	p.v["rma.chip_new_ms"] = p.batches("probe.rma.chip_new", func(int) int64 {
		rma.NewChipN(p.cfg, p.n)
		return 1
	}) / 1e6

	// The pooled path the harness uses: after the first build an acquire
	// is a reset.
	rma.ReleaseChip(rma.AcquireChipN(p.cfg, p.n))
	p.v["rma.chip_acquire_us"] = p.batches("probe.rma.chip_acquire", func(int) int64 {
		rma.ReleaseChip(rma.AcquireChipN(p.cfg, p.n))
		return 1
	}) / 1e3

	// Core 0 puts fresh (uncached) private memory into core 1's MPB and
	// gets it back; every call is its own span.
	peer := 1 % p.n
	p.batches("probe.rma.putget", func(int) int64 {
		chip := rma.AcquireChipN(p.cfg, p.n)
		defer rma.ReleaseChip(chip)
		chip.Run(func(c *rma.Core) {
			if c.ID() != 0 {
				return
			}
			for i := 0; i < callsPerBatch; i++ {
				addr := i * extentLines * lineBytes
				t0 := c.Now()
				s := p.tr.begin("rma.PutMemToMPB", i)
				c.PutMemToMPB(peer, 0, addr, extentLines)
				p.tr.end(s, extentLines)
				if i == 0 {
					p.exact("rma.put96_us", (c.Now() - t0).Microseconds())
				}
				s = p.tr.begin("rma.GetMPBToMem", i)
				c.GetMPBToMem(peer, 0, addr, extentLines)
				p.tr.end(s, extentLines)
			}
		})
		return 2 * callsPerBatch * extentLines
	})
	p.v["rma.ns_per_line_put"] = p.callSpans("rma.PutMemToMPB")
	p.v["rma.ns_per_line_get"] = p.callSpans("rma.GetMPBToMem")
	want := paperModel.CMemPut(extentLines, p.topo.MemDistance(0), p.topo.CoreDistance(0, peer)).Microseconds()
	p.v["rma.put_model_err_pct"] = modelErrPct(p.v["rma.put96_us"], want)

	// Cores 0 and 1 bounce a sequence number between their MPBs; the span
	// opens after the first bounce so process spin-up is outside it.
	const rounds = 400
	const flagLine = 0
	p.batches("probe.rma.flags", func(int) int64 {
		if p.n < 2 {
			panic(fmt.Sprintf("flag round trip needs two cores, chip has %d", p.n))
		}
		chip := rma.AcquireChipN(p.cfg, p.n)
		defer rma.ReleaseChip(chip)
		chip.Run(func(c *rma.Core) {
			switch c.ID() {
			case 0:
				s := -1
				for r := uint64(1); r <= rounds+1; r++ {
					c.SetFlag(1, flagLine, r)
					c.WaitFlagGE(flagLine, r)
					if r == 1 {
						s = p.tr.begin("rma.flag_roundtrips", 0)
					}
				}
				p.tr.end(s, rounds)
			case 1:
				for r := uint64(1); r <= rounds+1; r++ {
					c.WaitFlagGE(flagLine, r)
					c.SetFlag(0, flagLine, r)
				}
			}
		})
		return rounds
	})
	p.v["rma.ns_per_flag_roundtrip"] = p.callSpans("rma.flag_roundtrips")
}
