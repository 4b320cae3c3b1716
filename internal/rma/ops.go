package rma

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Per-line analytic costs (paper Figure 2, Formulas 1–6). All distances d
// are router hop counts.

// CMpbR is the completion (= latency) of reading one cache line from an
// MPB at distance d: o^mpb + 2d·Lhop (Formula 3).
func (c *Core) CMpbR(d int) sim.Duration {
	p := c.chip.Cfg.Params
	return p.OMpb + sim.Duration(2*d)*p.Lhop
}

// CMpbW is the completion of writing one cache line to an MPB at distance
// d, including the acknowledgment: o^mpb + 2d·Lhop (Formula 2).
func (c *Core) CMpbW(d int) sim.Duration {
	p := c.chip.Cfg.Params
	return p.OMpb + sim.Duration(2*d)*p.Lhop
}

// LMpbW is the latency of an MPB write — when the line becomes visible at
// the destination: o^mpb + d·Lhop (Formula 1).
func (c *Core) LMpbW(d int) sim.Duration {
	p := c.chip.Cfg.Params
	return p.OMpb + sim.Duration(d)*p.Lhop
}

// CMemR is the completion of reading one line from off-chip memory at
// controller distance d: o^mem_r + 2d·Lhop (Formula 6).
func (c *Core) CMemR(d int) sim.Duration {
	p := c.chip.Cfg.Params
	return p.OMemR + sim.Duration(2*d)*p.Lhop
}

// CMemW is the completion of writing one line to off-chip memory at
// controller distance d: o^mem_w + 2d·Lhop (Formula 5).
func (c *Core) CMemW(d int) sim.Duration {
	p := c.chip.Cfg.Params
	return p.OMemW + sim.Duration(2*d)*p.Lhop
}

// checkLines validates a line-count argument.
func checkLines(m int) {
	if m <= 0 {
		panic(fmt.Sprintf("rma: non-positive line count %d", m))
	}
}

// opCompletion combines the analytic completion time with contention
// effects, without touching the clock. analytic is the contention-free
// completion; portFinish is the (possibly zero) FIFO-port service
// finish; tail is the path cost from port back to the issuing core
// (d·Lhop); meshFinish is the detailed-NoC clearing time (or 0). delay
// is the extra completion beyond the analytic time, which shifts write
// visibility accordingly. Pre steps store both in the opFrame, whose
// Step advances the clock to completion.
func (c *Core) opCompletion(analytic, portFinish sim.Time, tail sim.Duration, meshFinish sim.Time) (completion sim.Time, delay sim.Duration) {
	completion = analytic
	if c.chip.Cfg.Contention.Enabled && portFinish > 0 {
		if t := portFinish + tail; t > completion {
			completion = t
		}
	}
	if meshFinish > completion {
		completion = meshFinish
	}
	return completion, completion - analytic
}

// finishOp is opCompletion plus the clock advance — the epilogue of the
// ops that never run inside a protocol frame and so have no framed form
// (PutLine, ReadLineBytes).
func (c *Core) finishOp(analytic, portFinish sim.Time, tail sim.Duration, meshFinish sim.Time) sim.Duration {
	completion, delay := c.opCompletion(analytic, portFinish, tail, meshFinish)
	c.proc.AdvanceTo(completion)
	return delay
}

// meshTraverse books the transfer on the detailed NoC if enabled.
func (c *Core) meshTraverse(t sim.Time, src, dst scc.Coord, packets int) sim.Time {
	if c.chip.mesh == nil {
		return 0
	}
	return c.chip.mesh.Traverse(t, src, dst, packets)
}

// reservePort books service units on an MPB port if contention is on.
// Beyond the knee (the paper's ~24-accessor threshold) the requester
// additionally pays a deterministic per-core penalty scaled by queue
// depth: §3.3 observed that past the threshold "contention does not
// equally affect all cores" with non-deterministic per-core overhead
// (slowest >2× fastest for gets, >4× for puts); a fair FIFO alone would
// equalize steady-state latencies, so the spread is modelled as a fixed
// per-core bias that only activates under saturation.
func (c *Core) reservePort(owner int, t sim.Time, lines int, write bool) sim.Time {
	cp := c.chip.Cfg.Contention
	if !cp.Enabled {
		return 0
	}
	svc, esc := cp.ReadSvc, cp.ReadEscalation
	if write {
		svc, esc = cp.WriteSvc, cp.WriteEscalation
	}
	mpb := c.chip.MPB(owner)
	// Only remote cores count toward the contention knee: the paper's
	// "up to 24 cores accessing the same MPB" are remote accessors, and
	// OC-Bcast with k = 24 (24 children + the owner's own staging puts)
	// is explicitly within the safe region. The owner's own accesses are
	// neither recorded nor penalised, so they skip the ledger.
	recent, active := 0, 0
	if c.id != owner {
		recent, active = mpb.NoteAccess(c.id, t, accessorWindow)
	}
	finish := mpb.Port.ReserveDur(t, sim.Duration(int64(lines)*int64(svc)))
	if c.id != owner && cp.Knee > 0 && esc > 1 && active > cp.Knee {
		// Sustained-pressure ramp: the penalty fully applies only to
		// cores that keep hammering the port (Figure 4's loops); an
		// isolated burst, like one OC-Bcast chunk, is barely affected
		// (the paper's k=47 curve overlaps k=7 at small sizes).
		ramp := float64(recent-1) / rampOps
		if ramp > 1 {
			ramp = 1
		}
		finish += sim.Duration(float64(active) * float64(lines) * float64(svc) * (esc - 1) * unfairness(c.id) * ramp)
	}
	return finish
}

// accessorWindow is the trailing window over which cores count as
// concurrently hammering an MPB port; rampOps is how many accesses within
// that window make the pressure fully "sustained".
const (
	accessorWindow = 400 * sim.Microsecond
	rampOps        = 4.0
)

// unfairness maps a core id deterministically to [0,1): the relative
// arbitration penalty the core suffers on a saturated MPB port. The
// distribution is cubed so most cores see mild penalties while a few
// outliers are much slower — matching the paper's per-core scatter in
// Figure 4 ("contention does not equally affect all cores").
func unfairness(core int) float64 {
	h := uint32(core) * 0x9E3779B1 // golden-ratio hash for spread
	u := float64(h>>24) / 256.0
	return u * u * u
}

// PutMPBToMPB copies m cache lines from this core's own MPB (starting at
// srcLine) into core dst's MPB (starting at dstLine). Cost: Formula 7,
// C^mpb_put(m, d) = o^mpb_put + m·C^mpb_r(1) + m·C^mpb_w(d). The last
// line becomes visible d·Lhop before the operation completes (Formula 9).
func (c *Core) PutMPBToMPB(dst, dstLine, srcLine, m int) {
	c.putMPBPre(&c.opf, dst, dstLine, srcLine, m)
	c.proc.Exec(&c.opf)
}

// putMPBPre is PutMPBToMPB up to the completion advance.
func (c *Core) putMPBPre(f *opFrame, dst, dstLine, srcLine, m int) {
	checkLines(m)
	f.c, f.op, f.pc = c, opPutMPB, 0
	f.span = c.beginSpan("put.mpb", obs.BucketMPB,
		obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "lines", Val: int64(m)})
	p := c.chip.Cfg.Params
	d := c.distMPB(dst)
	t0 := c.Now()
	own, rem := c.chip.MPB(c.id), c.chip.MPB(dst)

	srcPort := c.reservePort(c.id, t0, m, false)
	dstPort := c.reservePort(dst, t0, m, true)
	mesh := c.meshTraverse(t0, c.coord(), c.coordOf(dst), m)

	// Each line costs one local read then one remote write, so read
	// times, visibility times and the op clock all advance by the same
	// constant stride — the whole transfer is one extent.
	step := c.CMpbR(1) + c.CMpbW(d)
	read0 := t0 + p.OMpbPut + c.CMpbR(1)
	buf := c.scratchBuf(m * scc.CacheLine)
	own.ReadLinesInto(buf, srcLine, m, read0, step)
	t := t0 + p.OMpbPut + sim.Duration(m)*step
	port := srcPort
	if dstPort > port {
		port = dstPort
	}
	f.completion, f.delay = c.opCompletion(t, port, sim.Duration(d)*p.Lhop, mesh)
	f.dst, f.line, f.m, f.buf = rem, dstLine, m, buf
	f.eff0, f.stride = read0+c.LMpbW(d)+f.delay, step
}

// PutMemToMPB copies m cache lines from this core's private off-chip
// memory (byte address srcAddr, 32-byte aligned) into core dst's MPB.
// Cost: Formula 8, C^mem_put = o^mem_put + m·C^mem_r(dsrc) + m·C^mpb_w(ddst),
// with L1-cached source lines read at (approximately) zero cost.
func (c *Core) PutMemToMPB(dst, dstLine, srcAddr, m int) {
	c.putMemPre(&c.opf, dst, dstLine, srcAddr, m)
	c.proc.Exec(&c.opf)
}

// putMemPre is PutMemToMPB up to the completion advance; the post step
// replays c.runs shifted by the contention delay.
func (c *Core) putMemPre(f *opFrame, dst, dstLine, srcAddr, m int) {
	checkLines(m)
	checkAlign(srcAddr)
	f.c, f.op, f.pc = c, opPutMem, 0
	f.span = c.beginSpan("put.mem", obs.BucketMem,
		obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "lines", Val: int64(m)})
	p := c.chip.Cfg.Params
	d := c.distMPB(dst)
	dm := c.distMem()
	t0 := c.Now()
	priv, rem, cache := c.chip.Private(c.id), c.chip.MPB(dst), c.chip.Cache(c.id)

	dstPort := c.reservePort(dst, t0, m, true)
	mesh := c.meshTraverse(t0, c.coord(), c.coordOf(dst), m)

	buf := c.scratchBuf(m * scc.CacheLine)
	priv.Read(buf, srcAddr, m*scc.CacheLine)

	// Visibility times advance by C^mpb_w(d) per line, plus C^mem_r(dm)
	// for lines that miss the L1 model — so a run of lines with the same
	// hit/miss outcome forms one uniform-stride extent, and a whole
	// transfer is typically one extent (all hit or all miss).
	t := t0 + p.OMemPut
	ctr := c.counters()
	runs := c.runs[:0]
	var cur writeRun
	for i := 0; i < m; i++ {
		stride := c.CMpbW(d)
		if cache.Hit(srcAddr + i*scc.CacheLine) {
			ctr.CacheHitLines++
		} else {
			t += c.CMemR(dm)
			stride += c.CMemR(dm)
			ctr.MemReadLines++
		}
		eff := t + c.LMpbW(d)
		t += c.CMpbW(d)
		if cur.n > 0 && cur.stride == stride && eff == cur.eff0+sim.Duration(cur.n)*cur.stride {
			cur.n++
		} else {
			if cur.n > 0 {
				runs = append(runs, cur)
			}
			cur = writeRun{line0: dstLine + i, n: 1, eff0: eff, stride: stride}
		}
	}
	runs = append(runs, cur)
	c.runs = runs
	f.completion, f.delay = c.opCompletion(t, dstPort, sim.Duration(d)*p.Lhop, mesh)
	f.dst, f.m, f.buf = rem, m, buf
}

// writeRun is one uniform-stride sub-extent of a bulk write whose
// per-line costs vary (PutMemToMPB's cache hits vs misses).
type writeRun struct {
	line0, n int
	eff0     sim.Time
	stride   sim.Duration
}

// GetMPBToMPB copies m cache lines from core src's MPB into this core's
// own MPB. Cost: Formula 11,
// C^mpb_get = o^mpb_get + m·C^mpb_r(dsrc) + m·C^mpb_w(1).
func (c *Core) GetMPBToMPB(src, srcLine, dstLine, m int) {
	c.getMPBPre(&c.opf, src, srcLine, dstLine, m)
	c.proc.Exec(&c.opf)
}

// getMPBPre is GetMPBToMPB up to the completion advance.
func (c *Core) getMPBPre(f *opFrame, src, srcLine, dstLine, m int) {
	checkLines(m)
	f.c, f.op, f.pc = c, opGetMPB, 0
	f.span = c.beginSpan("get.mpb", obs.BucketMPB,
		obs.Arg{Key: "src", Val: int64(src)}, obs.Arg{Key: "lines", Val: int64(m)})
	p := c.chip.Cfg.Params
	d := c.distMPB(src)
	t0 := c.Now()
	own, rem := c.chip.MPB(c.id), c.chip.MPB(src)

	srcPort := c.reservePort(src, t0, m, false)
	ownPort := c.reservePort(c.id, t0, m, true)
	mesh := c.meshTraverse(t0, c.coordOf(src), c.coord(), m)

	step := c.CMpbR(d) + c.CMpbW(1)
	read0 := t0 + p.OMpbGet + c.CMpbR(d)
	buf := c.scratchBuf(m * scc.CacheLine)
	rem.ReadLinesInto(buf, srcLine, m, read0, step)
	t := t0 + p.OMpbGet + sim.Duration(m)*step
	port := srcPort
	if ownPort > port {
		port = ownPort
	}
	f.completion, f.delay = c.opCompletion(t, port, sim.Duration(d)*p.Lhop, mesh)
	f.dst, f.line, f.m, f.buf = own, dstLine, m, buf
	f.eff0, f.stride = read0+c.LMpbW(1)+f.delay, step
}

// GetMPBCombine reads m cache lines from core src's MPB starting at
// srcLine and folds them into the same-size region of this core's own MPB
// at dstLine via combine(dst, src) — the reduction analogue of Formula
// 11's get: each line costs a remote read C^mpb_r(dsrc), a local
// accumulator read C^mpb_r(1) and a local write-back C^mpb_w(1). The
// reduction arithmetic itself is NOT charged here; callers account for it
// separately (one compute pass over the data), keeping the primitive's
// cost purely communicational like the other ops.
func (c *Core) GetMPBCombine(src, srcLine, dstLine, m int, combine func(dst, src []byte)) {
	c.combinePre(&c.opf, src, srcLine, dstLine, m, combine)
	c.proc.Exec(&c.opf)
}

// combinePre is GetMPBCombine up to the completion advance: the folded
// lines are written back by the post step.
func (c *Core) combinePre(f *opFrame, src, srcLine, dstLine, m int, combine func(dst, src []byte)) {
	checkLines(m)
	f.c, f.op, f.pc = c, opCombine, 0
	f.span = c.beginSpan("get.combine", obs.BucketMPB,
		obs.Arg{Key: "src", Val: int64(src)}, obs.Arg{Key: "lines", Val: int64(m)})
	p := c.chip.Cfg.Params
	d := c.distMPB(src)
	t0 := c.Now()
	own, rem := c.chip.MPB(c.id), c.chip.MPB(src)

	srcPort := c.reservePort(src, t0, m, false)
	// The local MPB port serves both the accumulator reads and the
	// write-backs: 2m line accesses.
	ownPortR := c.reservePort(c.id, t0, m, false)
	ownPortW := c.reservePort(c.id, t0, m, true)
	mesh := c.meshTraverse(t0, c.coordOf(src), c.coord(), m)

	// Per line: remote read, local accumulator read, local write-back —
	// three accesses with one combined stride, so both read sequences
	// and the write-back extent march in lockstep.
	step := c.CMpbR(d) + c.CMpbR(1) + c.CMpbW(1)
	remRead0 := t0 + p.OMpbGet + c.CMpbR(d)
	ownRead0 := remRead0 + c.CMpbR(1)
	buf := c.scratchBuf(2 * m * scc.CacheLine)
	theirs, mine := buf[:m*scc.CacheLine], buf[m*scc.CacheLine:]
	rem.ReadLinesInto(theirs, srcLine, m, remRead0, step)
	own.ReadLinesInto(mine, dstLine, m, ownRead0, step)
	for i := 0; i < m; i++ {
		o := i * scc.CacheLine
		combine(mine[o:o+scc.CacheLine], theirs[o:o+scc.CacheLine])
	}
	t := t0 + p.OMpbGet + sim.Duration(m)*step
	port := srcPort
	if ownPortR > port {
		port = ownPortR
	}
	if ownPortW > port {
		port = ownPortW
	}
	f.completion, f.delay = c.opCompletion(t, port, sim.Duration(d)*p.Lhop, mesh)
	f.dst, f.line, f.m, f.buf = own, dstLine, m, mine
	f.eff0, f.stride = ownRead0+c.LMpbW(1)+f.delay, step
}

// GetMPBToMem copies m cache lines from core src's MPB into this core's
// private off-chip memory at byte address dstAddr (32-byte aligned).
// Cost: Formula 12,
// C^mem_get = o^mem_get + m·C^mpb_r(dsrc) + m·C^mem_w(ddst).
// Written lines populate the L1 model (write allocate), which is what
// Formula 14 exploits for the binomial baseline's resends.
func (c *Core) GetMPBToMem(src, srcLine, dstAddr, m int) {
	c.getMemPre(&c.opf, src, srcLine, dstAddr, m)
	c.proc.Exec(&c.opf)
}

// getMemPre is GetMPBToMem up to the completion advance; the post step
// is counters and the span close only (the private-memory write and L1
// touch happen here, before the yield, as they always have).
func (c *Core) getMemPre(f *opFrame, src, srcLine, dstAddr, m int) {
	checkLines(m)
	checkAlign(dstAddr)
	f.c, f.op, f.pc = c, opGetMem, 0
	f.span = c.beginSpan("get.mem", obs.BucketMem,
		obs.Arg{Key: "src", Val: int64(src)}, obs.Arg{Key: "lines", Val: int64(m)})
	p := c.chip.Cfg.Params
	d := c.distMPB(src)
	dm := c.distMem()
	t0 := c.Now()
	priv, rem, cache := c.chip.Private(c.id), c.chip.MPB(src), c.chip.Cache(c.id)

	srcPort := c.reservePort(src, t0, m, false)
	mesh := c.meshTraverse(t0, c.coordOf(src), c.coord(), m)

	step := c.CMpbR(d) + c.CMemW(dm)
	read0 := t0 + p.OMemGet + c.CMpbR(d)
	buf := c.scratchBuf(m * scc.CacheLine)
	rem.ReadLinesInto(buf, srcLine, m, read0, step)
	priv.Write(dstAddr, buf)
	cache.TouchRange(dstAddr, m)
	t := t0 + p.OMemGet + sim.Duration(m)*step
	f.completion, f.delay = c.opCompletion(t, srcPort, sim.Duration(d)*p.Lhop, mesh)
	f.dst, f.m = nil, m
}

func checkAlign(addr int) {
	if addr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("rma: address %d not %d-byte aligned", addr, scc.CacheLine))
	}
}
