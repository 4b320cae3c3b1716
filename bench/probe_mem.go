package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	// extentLines is the size of the probes' bulk transfers: one OC-Bcast
	// chunk (Moc).
	extentLines = 96
	// callsPerBatch is how many individually timed calls a batch makes.
	callsPerBatch = 32
)

// probeMem drives MPB extents, flag waits and private memory directly, on
// an engine of one or two processes.
func probeMem(p *probeCtx) {
	lines := p.topo.MPBLines
	readSvc := p.cfg.Contention.ReadSvc
	stride := 10 * sim.Nanosecond
	buf := make([]byte, extentLines*lineBytes)

	// One writer fills a chunk, one reader drains it, as a put followed by
	// a get does. Each call is its own span (two clock reads per call are
	// part of the number).
	p.batches("probe.mem.extents", func(int) int64 {
		e := sim.NewEngine(1)
		m := mem.NewMPB(e, 0, lines, readSvc)
		e.Run(func(pr *sim.Proc) {
			for i := 0; i < callsPerBatch; i++ {
				s := p.tr.begin("mem.WriteLines", i)
				m.WriteLines(0, buf, extentLines, pr.Now(), stride)
				p.tr.end(s, extentLines)
				pr.Advance(extentLines * stride)
				s = p.tr.begin("mem.ReadLinesInto", i)
				m.ReadLinesInto(buf, 0, extentLines, pr.Now(), stride)
				p.tr.end(s, extentLines)
				pr.Advance(extentLines * stride)
			}
		})
		return 2 * callsPerBatch * extentLines
	})
	p.v["mem.ns_per_line_write"] = p.callSpans("mem.WriteLines")
	p.v["mem.ns_per_line_read"] = p.callSpans("mem.ReadLinesInto")

	// Two processes ping-pong a sequence number through a flag line in
	// each other's MPB: every write wakes the blocked owner.
	const rounds = 500
	p.v["mem.ns_per_wait_wake"] = p.batches("probe.mem.wait_wake", func(int) int64 {
		e := sim.NewEngine(2)
		mpb := [2]*mem.MPB{mem.NewMPB(e, 0, lines, readSvc), mem.NewMPB(e, 1, lines, readSvc)}
		e.Run(func(pr *sim.Proc) {
			me := pr.ID()
			var flag [lineBytes]byte
			for r := uint64(1); r <= rounds; r++ {
				if me == 0 {
					mpb[0].WaitU64GE(pr, 0, r)
				}
				binary.LittleEndian.PutUint64(flag[:], r)
				mpb[1-me].WriteLine(0, flag[:], pr.Now()+stride)
				if me == 1 {
					mpb[1].WaitU64GE(pr, 0, r)
				}
			}
		})
		return 2 * rounds
	})

	// Side-effect-free polls of a flag that has a write pending, as the
	// non-blocking collectives' Test issues them.
	const polls = 10000
	p.v["mem.ns_per_probe"] = p.batches("probe.mem.probe", func(int) int64 {
		e := sim.NewEngine(1)
		m := mem.NewMPB(e, 0, lines, readSvc)
		var sum uint64
		e.Run(func(pr *sim.Proc) {
			var flag [lineBytes]byte
			flag[0] = 1
			m.WriteLine(0, flag[:], pr.Now()+sim.Microsecond)
			for i := 0; i < polls; i++ {
				sum += m.ProbeU64(0, pr.Now())
			}
		})
		if sum != 0 {
			p.fail(fmt.Errorf("mem.ProbeU64 saw a write before its effective time"))
		}
		return polls
	})

	pm := mem.NewPrivate(0)
	p.v["mem.private_ns_per_line"] = p.batches("probe.mem.private", func(int) int64 {
		for i := 0; i < callsPerBatch; i++ {
			addr := i * len(buf)
			pm.Write(addr, buf)
			pm.Read(buf, addr, len(buf))
		}
		return 2 * callsPerBatch * extentLines
	})
}
