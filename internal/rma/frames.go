package rma

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/sim"
)

// This file is the one driver of the RMA primitives. Every op splits
// into a *pre* step (all side effects up to the completion-time clock
// advance: span open, port reservations, mesh booking, source reads,
// pre-yield counters) and a *post* step (deferred destination writes,
// remaining counters, span close), with the completion time carried
// between them in the core's embedded opFrame. The blocking entry
// points in ops.go/flags.go run pre and Exec the frame as a machine
// section of the body; Core.CallNext (prog.go) runs the pre of a step
// program's next instruction and pushes the same frame as a child, so
// every protocol (rcce, core, occoll) executes the identical op without
// parking a goroutine. One body and one driver per op; script_test.go's
// TestOpScriptDigest pins a script that touches every framed op,
// entered both ways, to recorded clocks, counters and switch counts.

// Opcodes: which RMA op an instr of a step program stands for, and
// which post step (deferred writes + counters) an opFrame runs after
// the completion-time yield. opWait is the multi-state flag wait;
// opCombinePriv exists in instrs only — its frame is an opCompute.
const (
	opPutMPB uint8 = iota
	opPutMem
	opGetMPB
	opGetMem
	opCombine
	opCompute
	opSetFlag
	opWriteLocal
	opPoll
	opWait
	opCombinePriv
)

// Wait-op program counter values (opFrame.pc when op == opWait).
const (
	wpCheck uint8 = iota // evaluate satisfiedAt; arm + block if not
	wpWake               // woken by a Signal: disarm, re-check
	wpPoll               // charge the final successful poll read
	wpDone               // read the value, count, close the span
)

// opFrame is a core's reusable RMA-op state machine: exactly one RMA
// op is in flight per core at a time (ops never nest), so the single
// embedded instance in Core carries any op's pre→post state with zero
// allocation.
type opFrame struct {
	c  *Core
	op uint8
	pc uint8

	// completion is the op's final clock position; delay is the extra
	// completion beyond the analytic time (shifts write visibility).
	completion sim.Time
	delay      sim.Duration

	// Deferred-write parameters for the post step: buf is the payload
	// staged at issue (mem.MPB.Stage). dst is nil when the op writes
	// nothing after the yield (GetMPBToMem).
	dst    *mem.MPB
	line   int
	m      int
	buf    []byte
	eff0   sim.Time
	stride sim.Duration

	// Flag-wait state (op == opWait).
	val      uint64
	embedded bool
	result   uint64

	span *obs.Recorder
}

// Step drives one resume-point-to-resume-point section of the op: the
// completion-time advance, then the post step (flag waits carry their
// own multi-state loop in stepWait).
func (f *opFrame) Step(p *sim.Proc) sim.StepStatus {
	if f.op == opWait {
		return f.stepWait(p)
	}
	if f.pc == 0 {
		f.pc = 1
		p.MachineAdvanceTo(f.completion)
		return sim.StepYield
	}
	f.c.opPost(f)
	return sim.StepDone
}

// stepWait is the flag wait, state by state: the check/arm/wake loop of
// mem.MPB.WaitU64GE over the MPB's explicit wait steps, then the final
// successful poll read C^mpb_r(1) and the value read.
func (f *opFrame) stepWait(p *sim.Proc) sim.StepStatus {
	c := f.c
	own := c.chip.MPB(c.id)
	switch f.pc {
	case wpWake:
		own.DisarmWait(f.embedded)
		fallthrough
	case wpCheck:
		if te, ok := own.WaitSatisfiedAt(f.line, p.Now(), f.val); ok {
			f.pc = wpPoll
			p.MachineAdvanceTo(te)
			return sim.StepYield
		}
		f.embedded = own.ArmWait(p, f.line, f.val)
		f.pc = wpWake
		return sim.StepBlock
	case wpPoll:
		f.pc = wpDone
		p.MachineAdvance(c.CMpbR(1))
		return sim.StepYield
	default: // wpDone
		f.result = own.PeekU64(f.line, p.Now())
		ctr := c.counters()
		ctr.MPBReadLines++
		ctr.FlagWaits++
		c.endSpan(f.span)
		f.span = nil
		return sim.StepDone
	}
}

// opPost applies the op's deferred writes and remaining counters and
// closes its span — everything that follows the completion-time yield.
func (c *Core) opPost(f *opFrame) {
	ctr := c.counters()
	switch f.op {
	case opPutMPB:
		f.dst.WriteStaged(f.line, f.buf, f.m, f.eff0, f.stride)
		ctr.MPBReadLines += int64(f.m)
		ctr.MPBWriteLines += int64(f.m)
		ctr.PutOps++
	case opPutMem:
		for i := range c.runs {
			r := &c.runs[i]
			f.dst.WriteStaged(r.line0, r.buf, r.n, r.eff0+f.delay, r.stride)
			r.buf = nil
		}
		ctr.MPBWriteLines += int64(f.m)
		ctr.PutOps++
	case opGetMPB:
		f.dst.WriteStaged(f.line, f.buf, f.m, f.eff0, f.stride)
		ctr.MPBReadLines += int64(f.m)
		ctr.MPBWriteLines += int64(f.m)
		ctr.GetOps++
	case opGetMem:
		ctr.MPBReadLines += int64(f.m)
		ctr.MemWriteLines += int64(f.m)
		ctr.GetOps++
	case opCombine:
		f.dst.WriteStaged(f.line, f.buf, f.m, f.eff0, f.stride)
		ctr.MPBReadLines += int64(2 * f.m)
		ctr.MPBWriteLines += int64(f.m)
		ctr.GetOps++
	case opSetFlag:
		f.dst.WriteLine(f.line, c.flagBuf[:], f.eff0)
		ctr.MPBWriteLines++
		ctr.FlagSets++
	case opWriteLocal:
		ctr.MPBWriteLines++
	case opPoll:
		ctr.MPBReadLines++
		ctr.FlagWaits++
	}
	c.endSpan(f.span)
	f.span = nil
	f.dst = nil
	f.buf = nil
}

// Exec runs f as an inline machine section of this core's body — see
// sim.Proc.Exec.
func (c *Core) Exec(f sim.Frame) { c.proc.Exec(f) }

// call pushes the core's (pre-filled) opFrame as a child frame of the
// running machine and returns StepCall for the caller to propagate.
func (c *Core) call() sim.StepStatus {
	c.proc.Call(&c.opf)
	return sim.StepCall
}

// pollPre opens the one successful poll read C^mpb_r(1) of a flag the
// caller just saw arrive with ProbeFlagGE — exactly the final poll a
// flag wait charges. Probe-then-poll is the non-blocking collectives'
// Test/Progress path (Prog.Polled); a failed probe costs no virtual
// time and never gets here.
func (c *Core) pollPre(f *opFrame, line int) {
	f.c, f.op, f.pc = c, opPoll, 0
	f.span = c.beginSpan("flag.poll", obs.BucketWait,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	f.completion = c.Now() + c.CMpbR(1)
}

// waitPre opens a flag wait: the frame's own state loop (stepWait) does
// the rest.
func (c *Core) waitPre(f *opFrame, line int, val uint64) {
	f.c, f.op, f.pc = c, opWait, wpCheck
	f.line, f.val = line, val
	// The span opens before the wait so blocked time lands in its
	// bucket.
	f.span = c.beginSpan("flag.wait", obs.BucketWait,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
}

// computePre is Compute up to the clock advance. Only a positive
// duration gets a span.
func (c *Core) computePre(f *opFrame, d sim.Duration) {
	if d < 0 {
		panic("rma: negative Compute")
	}
	f.c, f.op, f.pc = c, opCompute, 0
	f.span = nil
	if d > 0 {
		f.span = c.beginSpan("compute", obs.BucketCompute, obs.Arg{Key: "ps", Val: int64(d)}, obs.Arg{})
	}
	f.completion = c.Now() + d
}

// combinePrivPre folds `lines` lines of the core's private memory at
// scratch into those at addr with fold, on the host at issue, over a
// buffer from the chip's slab, then opens the pass's compute charge.
func (c *Core) combinePrivPre(f *opFrame, addr, scratch, lines int, fold func(dst, src []byte)) {
	n := lines * scc.CacheLine
	own, priv := c.chip.MPB(c.id), c.chip.Private(c.id)
	buf := own.Stage(2 * lines)
	mine, theirs := buf[:n], buf[n:]
	priv.Read(mine, addr, n)
	priv.Read(theirs, scratch, n)
	fold(mine, theirs)
	priv.Write(addr, mine)
	own.Release(buf)
	c.computePre(f, CombineCost(lines))
}

// writeLocalPre zeroes line `line` of the own MPB at issue, visible
// after a local write latency and charged a local line write C^mpb_w(1):
// how a protocol resets its flag lines.
func (c *Core) writeLocalPre(f *opFrame, line int) {
	f.c, f.op, f.pc = c, opWriteLocal, 0
	f.span = c.beginSpan("line.write", obs.BucketMPB,
		obs.Arg{Key: "line", Val: int64(line)}, obs.Arg{})
	c.chip.MPB(c.id).WriteLine(line, zeroLine[:], c.Now()+c.LMpbW(1))
	f.completion = c.Now() + c.CMpbW(1)
}

// zeroLine is WriteLocal's payload.
var zeroLine [scc.CacheLine]byte

// setFlagPre is SetFlag up to the completion advance.
func (c *Core) setFlagPre(f *opFrame, dst, line int, value uint64) {
	f.c, f.op, f.pc = c, opSetFlag, 0
	f.span = c.beginSpan("flag.set", obs.BucketFlag,
		obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "line", Val: int64(line)})
	p := c.chip.Cfg.Params
	d := c.distMPB(dst)
	t0 := c.Now()

	dstPort := c.reservePort(dst, t0, 1, true)
	mesh := c.meshTraverse(t0, c.coord(), c.coordOf(dst), 1)

	eff := t0 + p.OMpbPut + c.LMpbW(d)
	analytic := t0 + p.OMpbPut + c.CMpbW(d)
	f.completion, f.delay = c.opCompletion(analytic, dstPort, sim.Duration(d)*p.Lhop, mesh)

	c.flagBuf = [scc.CacheLine]byte{}
	binary.LittleEndian.PutUint64(c.flagBuf[:8], value)
	f.dst, f.line, f.eff0 = c.chip.MPB(dst), line, eff+f.delay
}
