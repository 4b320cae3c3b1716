package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/sim"
)

const (
	// refLines is the golden point's size: one Moc chunk.
	refLines = 96
	// peakLines is the message size the paper's peak throughput is read
	// at (256 KiB, as the headline experiment uses).
	peakLines = 8192
)

// collectiveRun simulates one collective the way the harness measures it:
// a pooled chip, a barrier, then the call on every core. setup builds the
// per-core protocol state and returns the call. Latency runs to the last
// core's return, from core 0's call (rooted at 0) or from the first
// core's call. It also returns the engine's context switches for the
// whole simulation, and hands the finished chip to check before release.
func (p *probeCtx) collectiveRun(stage func(chip *rma.Chip), setup func(c *rma.Core, port *rcce.Port) func(),
	fromRoot bool, check func(chip *rma.Chip)) (us float64, switches int64) {
	chip := rma.AcquireChipN(p.cfg, p.n)
	defer rma.ReleaseChip(chip)
	stage(chip)
	starts := make([]sim.Time, p.n)
	ends := make([]sim.Time, p.n)
	sw0 := chip.Engine.Switches()
	chip.Run(func(c *rma.Core) {
		port := rcce.NewPort(c)
		call := setup(c, port)
		port.Barrier()
		starts[c.ID()] = c.Now()
		call()
		ends[c.ID()] = c.Now()
	})
	first, last := starts[0], ends[0]
	for i := 1; i < p.n; i++ {
		if !fromRoot && starts[i] < first {
			first = starts[i]
		}
		if ends[i] > last {
			last = ends[i]
		}
	}
	if check != nil {
		check(chip)
	}
	return (last - first).Microseconds(), chip.Engine.Switches() - sw0
}

// bcastRun is collectiveRun for a broadcast of `lines` from root 0; it
// checks the bytes on the last core.
func (p *probeCtx) bcastRun(what string, lines int, bcast func(c *rma.Core, port *rcce.Port) func()) (us float64, switches int64) {
	payload := make([]byte, lines*lineBytes)
	for i := range payload {
		payload[i] = byte(i*7 + 13)
	}
	got := make([]byte, len(payload))
	return p.collectiveRun(
		func(chip *rma.Chip) { chip.Private(0).Write(0, payload) }, bcast, true,
		func(chip *rma.Chip) {
			chip.Private(p.n-1).Read(got, 0, len(got))
			if !bytes.Equal(got, payload) {
				p.fail(fmt.Errorf("%s of %d lines: wrong bytes on core %d", what, lines, p.n-1))
			}
		})
}

// allreduceRun is collectiveRun for a sum-allreduce of `lines` lines of
// int64 (core c contributes c+1 in every lane); it checks core 0's sums.
func (p *probeCtx) allreduceRun(what string, lines int, setup func(c *rma.Core, port *rcce.Port) func()) (us float64, switches int64) {
	vec := make([]byte, lines*lineBytes)
	return p.collectiveRun(
		func(chip *rma.Chip) {
			for c := 0; c < p.n; c++ {
				for j := 0; j < len(vec); j += 8 {
					binary.LittleEndian.PutUint64(vec[j:], uint64(c+1))
				}
				chip.Private(c).Write(0, vec)
			}
		}, setup, false,
		func(chip *rma.Chip) {
			chip.Private(0).Read(vec, 0, len(vec))
			want := uint64(p.n * (p.n + 1) / 2)
			for j := 0; j < len(vec); j += 8 {
				if got := binary.LittleEndian.Uint64(vec[j:]); got != want {
					p.fail(fmt.Errorf("%s of %d lines: lane %d sums to %d, want %d", what, lines, j/8, got, want))
					return
				}
			}
		})
}

func ocBcast(lines int) func(c *rma.Core, port *rcce.Port) func() {
	return func(c *rma.Core, _ *rcce.Port) func() {
		b := core.NewBroadcaster(c, core.DefaultConfig())
		return func() { b.Bcast(0, 0, lines) }
	}
}

// throughputMBps is MB/s (10^6 bytes) of a broadcast of `lines` lines
// that completes in us microseconds, as the paper's Table 2 counts.
func throughputMBps(lines int, us float64) float64 {
	return float64(lines*lineBytes) / us
}

// probeCore drives OC-Bcast (k=7, root 0) on its own. At 48 cores the
// 96-line latency is the golden 156.594 µs of BENCH_simperf.json.
func probeCore(p *probeCtx) {
	p.v["core.bcast_host_us"] = p.batches("probe.core.bcast", func(int) int64 {
		us, sw := p.bcastRun("OC-Bcast", refLines, ocBcast(refLines))
		p.exact("core.bcast_us", us)
		p.exact("core.switches_per_bcast", float64(sw))
		return 1
	}) / 1e3
	us, _ := p.bcastRun("OC-Bcast", 1, ocBcast(1))
	p.v["core.bcast_1cl_us"] = us
	us, _ = p.bcastRun("OC-Bcast", peakLines, ocBcast(peakLines))
	p.v["core.peak_mbps"] = throughputMBps(peakLines, us)
}

// probeCollective drives the two-sided RCCE_comm baselines, and closes
// the paper's headline comparisons against the core probe's numbers.
func probeCollective(p *probeCtx) {
	binomial := func(lines int) func(c *rma.Core, port *rcce.Port) func() {
		return func(_ *rma.Core, port *rcce.Port) func() {
			comm := collective.NewComm(port)
			return func() { comm.BcastBinomial(0, 0, lines) }
		}
	}
	sag := func(lines int) func(c *rma.Core, port *rcce.Port) func() {
		return func(_ *rma.Core, port *rcce.Port) func() {
			comm := collective.NewComm(port)
			return func() { comm.BcastScatterAllgather(0, 0, lines) }
		}
	}
	p.v["collective.binomial_host_us"] = p.batches("probe.collective.binomial", func(int) int64 {
		us, _ := p.bcastRun("binomial", refLines, binomial(refLines))
		p.exact("collective.binomial_us", us)
		return 1
	}) / 1e3
	us, _ := p.bcastRun("binomial", 1, binomial(1))
	p.v["collective.binomial_1cl_us"] = us
	p.v["collective.sag_host_us"] = p.batches("probe.collective.sag", func(int) int64 {
		p.bcastRun("scatter-allgather", refLines, sag(refLines))
		return 1
	}) / 1e3
	us, _ = p.bcastRun("scatter-allgather", peakLines, sag(peakLines))
	p.v["collective.sag_peak_mbps"] = throughputMBps(peakLines, us)
	p.v["collective.allreduce_host_us"] = p.batches("probe.collective.allreduce", func(int) int64 {
		p.allreduceRun("two-sided allreduce", refLines, func(_ *rma.Core, port *rcce.Port) func() {
			comm := collective.NewComm(port)
			return func() { comm.AllReduce(0, refLines*lineBytes, refLines, collective.SumInt64) }
		})
		return 1
	}) / 1e3

	// The paper's §6.2 headline: 27 % lower 1-line latency than binomial,
	// almost 3x the throughput of scatter-allgather.
	bin1, oc1 := p.v["collective.binomial_1cl_us"], p.v["core.bcast_1cl_us"]
	p.v["core.latency_gain_pct"] = 100 * (bin1 - oc1) / bin1
	p.v["core.throughput_ratio"] = p.v["core.peak_mbps"] / p.v["collective.sag_peak_mbps"]
}
