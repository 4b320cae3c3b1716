package rma

import (
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Inter-processor interrupts. The SCC lets a core trigger an interrupt on
// any other core by writing that core's on-die configuration register —
// the mechanism the paper's §7 names for extending OC-Bcast to the MPMD
// model ("leveraging parallel inter-core interrupts", with many-core
// operating systems as the use case). The simulator models an IPI as a
// 1-packet register write (no MPB port involved) plus a fixed
// interrupt-entry overhead on the receiving core.

// ipiHandlerOverhead is the receiver-side cost of taking the interrupt
// (vector dispatch + handler entry on a P54C-class core under sccLinux).
const ipiHandlerOverhead = 2 * sim.Microsecond

// ipiWatchSpace keeps IPI watch keys disjoint from MPB line keys.
const ipiWatchSpace = 1 << 20

// SendIPI triggers an interrupt on core dst. The write completes like a
// 1-line remote register write (o^mpb + 2d·Lhop) and is delivered to the
// destination d·Lhop earlier (no MPB port arbitration: config registers
// have their own path).
func (c *Core) SendIPI(dst int) {
	o := c.beginSpan("ipi.send", obs.BucketFlag,
		obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{})
	p := c.chip.Cfg.Params
	d := c.distMPB(dst)
	t0 := c.Now()
	eff := t0 + p.OMpb + sim.Duration(d)*p.Lhop
	c.proc.Advance(p.OMpb + sim.Duration(2*d)*p.Lhop)

	st := &c.chip.slots[dst].ipi
	st.deliveries = append(st.deliveries, eff)
	c.chip.Engine.Signal(sim.WatchKey{Space: ipiWatchSpace, Line: dst}, eff)
	c.endSpan(o)
}

// WaitIPI blocks until an interrupt is delivered to this core, then
// charges the handler-entry overhead. Interrupts are consumed in
// delivery order; one call consumes one interrupt. It returns the
// virtual time at which the handler began executing.
func (c *Core) WaitIPI() sim.Time {
	o := c.beginSpan("ipi.wait", obs.BucketWait, obs.Arg{}, obs.Arg{})
	st := &c.chip.slots[c.id].ipi
	key := sim.WatchKey{Space: ipiWatchSpace, Line: c.id}
	for {
		if st.consumed < len(st.deliveries) {
			eff := st.deliveries[st.consumed]
			st.consumed++
			c.proc.AdvanceTo(eff)
			c.proc.Advance(ipiHandlerOverhead)
			c.endSpan(o)
			return c.Now()
		}
		// ipiState is its own Cond, and only the owning core waits on
		// it, so the block path allocates nothing.
		c.proc.BlockCond(key, st)
	}
}

// ipiState tracks one core's interrupt deliveries in delivery order.
// It doubles as the owning core's wait condition (sim.Cond).
type ipiState struct {
	deliveries []sim.Time
	consumed   int
}

// Holds reports an unconsumed delivery — the WaitIPI wake condition.
func (st *ipiState) Holds() bool { return st.consumed < len(st.deliveries) }

// PutLine writes a full 32-byte line into core dst's MPB — a 1-line put
// with a register/immediate source, like SetFlag but carrying arbitrary
// payload (used for MPMD activation descriptors).
func (c *Core) PutLine(dst, line int, data []byte) {
	o := c.beginSpan("line.put", obs.BucketMPB,
		obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "line", Val: int64(line)})
	p := c.chip.Cfg.Params
	d := c.distMPB(dst)
	t0 := c.Now()

	dstPort := c.reservePort(dst, t0, 1, true)
	mesh := c.meshTraverse(t0, c.coord(), c.coordOf(dst), 1)

	eff := t0 + p.OMpbPut + c.LMpbW(d)
	analytic := t0 + p.OMpbPut + c.CMpbW(d)
	delay := c.finishOp(analytic, dstPort, sim.Duration(d)*p.Lhop, mesh)

	var buf [scc.CacheLine]byte
	copy(buf[:], data)
	c.chip.MPB(dst).WriteLine(line, buf[:], eff+delay)
	c.counters().MPBWriteLines++
	c.endSpan(o)
}

// ReadLineBytes reads a full 32-byte line from core src's MPB, charging
// one line read C^mpb_r(d).
func (c *Core) ReadLineBytes(src, line int) []byte {
	o := c.beginSpan("line.read", obs.BucketMPB,
		obs.Arg{Key: "src", Val: int64(src)}, obs.Arg{Key: "line", Val: int64(line)})
	d := c.distMPB(src)
	t0 := c.Now()
	srcPort := c.reservePort(src, t0, 1, false)
	c.finishOp(t0+c.CMpbR(d), srcPort, sim.Duration(d)*c.chip.Cfg.Params.Lhop, 0)
	c.counters().MPBReadLines++
	c.endSpan(o)
	return c.chip.MPB(src).ReadLine(line, c.Now())
}
