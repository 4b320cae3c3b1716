package rma

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the one way to write a protocol over the RMA ops. The
// protocols of this repository — RCCE's barrier and two-sided
// handshakes, OC-Bcast's §4 chunk pipeline, the one-sided collectives'
// lane protocols — are data-independent: every loop bound and branch
// depends on the tree, the message size and the configuration, never on
// a value read from an MPB. So each is written as a straight-line step
// emitter: a function that appends the ops of one pipeline step to a
// Prog through the emitters below (named after the ops they stand for,
// so an emitter reads like the loop body it replaces), and one
// interpreter runs what it appended — Core.CallNext, which runs an
// instruction's pre step and pushes the core's opFrame as a child, under
// Core.Run (a protocol run to completion) or occoll's Request (a
// protocol that can stop at a flag that has not arrived).

// instr is one RMA op of a pipeline step, 16 bytes. op is one of the
// opFrame opcodes (frames.go). Chunk sizes and MPB lines fit the narrow
// fields — a core's MPB share is 256 lines — and emit refuses any value
// that does not.
type instr struct {
	op   uint8
	m    uint8
	line uint16
	peer int32
	arg  uint64 // private byte address, flag value, compute time in ps, or CombinePriv's two addresses
}

// Prog is an instruction buffer plus the program counter of the
// instruction to run next. The zero Prog is empty and ready to emit
// into; the buffer grows on demand and is kept across Resets.
type Prog struct {
	ins []instr
	pc  int
	// Fold is the reduce op Combine and CombinePriv instructions fold with.
	Fold func(dst, src []byte)
}

// Grow makes room for n instructions, so that a protocol whose longest
// step is known emits without regrowing the buffer.
func (p *Prog) Grow(n int) {
	if cap(p.ins) < n {
		p.ins = append(make([]instr, 0, n), p.ins...)
	}
}

// Reset empties the program.
func (p *Prog) Reset() { p.ins, p.pc = p.ins[:0], 0 }

// Done reports whether every emitted instruction has been issued.
func (p *Prog) Done() bool { return p.pc == len(p.ins) }

func (p *Prog) emit(op uint8, peer, line, m int, arg uint64) {
	if m>>8 != 0 || line>>16 != 0 || peer != int(int32(peer)) {
		panic(fmt.Sprintf("rma: instruction operands out of range (peer %d, line %d, %d lines)", peer, line, m))
	}
	p.ins = append(p.ins, instr{op: op, m: uint8(m), line: uint16(line), peer: int32(peer), arg: arg})
}

// The emitters. WaitGE (WaitEQ): this core's flag `line` must reach
// (equal) val before the program goes on; SetFlag writes val into flag
// `line` of dst's MPB; WriteLocal zeroes line `line` of the own MPB.
// PutMem stages m lines of private memory at addr into the own MPB at
// `line`; GetMem pulls m lines at `line` of src's MPB to private memory
// at addr; GetMPB pulls them to the same lines of the own MPB; Combine
// folds them into those lines with Fold (the arithmetic is charged
// separately, like GetMPBCombine's). CombinePriv folds `lines` lines of
// private memory at scratch into those at addr with Fold and charges the
// pass as CombineCost(lines) of compute. Compute advances the clock by d.
func (p *Prog) WaitGE(line int, val uint64)       { p.emit(opWait, 0, line, 0, val) }
func (p *Prog) WaitEQ(line int, val uint64)       { p.emit(opWaitEQ, 0, line, 0, val) }
func (p *Prog) SetFlag(dst, line int, val uint64) { p.emit(opSetFlag, dst, line, 0, val) }
func (p *Prog) WriteLocal(line int)               { p.emit(opWriteLocal, 0, line, 0, 0) }
func (p *Prog) PutMem(line, addr, m int)          { p.emit(opPutMem, 0, line, m, uint64(addr)) }
func (p *Prog) GetMem(src, line, addr, m int)     { p.emit(opGetMem, src, line, m, uint64(addr)) }
func (p *Prog) GetMPB(src, line, m int)           { p.emit(opGetMPB, src, line, m, 0) }
func (p *Prog) Combine(src, line, m int)          { p.emit(opCombine, src, line, m, 0) }
func (p *Prog) Compute(d sim.Duration)            { p.emit(opCompute, 0, 0, 0, uint64(d)) }

// CombinePriv carries its two private addresses (below 1 GiB, so 32 bits
// each) in arg and its line count in peer.
func (p *Prog) CombinePriv(addr, scratch, lines int) {
	if uint64(addr)>>32 != 0 || uint64(scratch)>>32 != 0 {
		panic(fmt.Sprintf("rma: CombinePriv addresses %d and %d out of range", addr, scratch))
	}
	p.emit(opCombinePriv, lines, 0, 0, uint64(addr)<<32|uint64(scratch))
}

// CombineCost is one compute pass over `lines` cache lines of cached data
// for the reduction arithmetic: ~10 ns per line on a P54C-class core. The
// two- and one-sided reductions charge the same pass so the two
// collective families stay directly comparable.
func CombineCost(lines int) sim.Duration {
	return sim.Duration(lines) * 10 * sim.Nanosecond
}

// TreeBarrier emits core me's side of one gather-release barrier over
// the binary tree of cores 0..n-1 in id order (the children of i are
// 2i+1 and 2i+2): wait for both children's arrival on flag lines childA
// and childB, report to the parent and wait for its release, release
// the children. Every call must carry a fresh, increasing seq, so the
// three lines are safely reused across barriers (single writer per line
// per seq, waits are ≥). rcce's Barrier and OC-Bcast's private
// root-change fence are this tree on different lines.
func (p *Prog) TreeBarrier(me, n, childA, childB, release int, seq uint64) {
	left, right := 2*me+1, 2*me+2
	if left < n {
		p.WaitGE(childA, seq)
	}
	if right < n {
		p.WaitGE(childB, seq)
	}
	if me != 0 {
		parent, line := (me-1)/2, childA
		if me == 2*parent+2 {
			line = childB
		}
		p.SetFlag(parent, line, seq)
		p.WaitGE(release, seq)
	}
	if left < n {
		p.SetFlag(left, release, seq)
	}
	if right < n {
		p.SetFlag(right, release, seq)
	}
}

// PendingWait reports the flag line and value the next instruction waits
// for (≥), if it is such a wait. A protocol that must not park probes
// the flag with ProbeFlagGE and either stops there — the program stays
// on the wait — or, the flag having arrived, calls Polled.
func (p *Prog) PendingWait() (line int, val uint64, ok bool) {
	if p.Done() || p.ins[p.pc].op != opWait {
		return 0, 0, false
	}
	return int(p.ins[p.pc].line), p.ins[p.pc].arg, true
}

// Polled turns the pending wait, whose flag the caller just saw arrive
// with ProbeFlagGE, into the one successful poll read C^mpb_r(1) a flag
// wait ends with: a failed probe costs no virtual time, a successful
// one exactly what the parked wait charges.
func (p *Prog) Polled() { p.ins[p.pc].op = opPoll }

// CallNext issues p's next instruction from inside a sim.Frame.Step of
// this core's own machine: it runs the op's pre step at the current
// clock, pushes the core's opFrame as a child and returns StepCall for
// the caller to propagate. p must not be Done.
func (c *Core) CallNext(p *Prog) sim.StepStatus {
	in := &p.ins[p.pc]
	p.pc++
	f, peer, line, m := &c.opf, int(in.peer), int(in.line), int(in.m)
	switch in.op {
	case opWait:
		c.waitPre(f, line, false, in.arg)
	case opWaitEQ:
		c.waitPre(f, line, true, in.arg)
	case opPoll:
		c.pollPre(f, line)
	case opPutMem:
		c.putMemPre(f, c.id, line, int(in.arg), m)
	case opGetMem:
		c.getMemPre(f, peer, line, int(in.arg), m)
	case opGetMPB:
		c.getMPBPre(f, peer, line, line, m)
	case opCombine:
		c.combinePre(f, peer, line, line, m, p.Fold)
	case opCombinePriv:
		c.combinePrivPre(f, int(in.arg>>32), int(in.arg&(1<<32-1)), peer, p.Fold)
	case opCompute:
		c.computePre(f, sim.Duration(in.arg))
	case opWriteLocal:
		c.writeLocalPre(f, line)
	default: // opSetFlag
		c.setFlagPre(f, peer, line, in.arg)
	}
	return c.call()
}

// Stepper is a protocol as a step emitter: EmitStep appends the ops of
// pipeline step `step` (0, 1, …) to p and reports whether more steps
// follow. A step may emit nothing (a tree node with no part in it).
type Stepper interface {
	EmitStep(p *Prog, step int) (more bool)
}

// runFrame is the frame that runs a Stepper to completion: it issues
// the emitted instructions one child frame each and refills the
// exhausted buffer with the next step. The one instance embedded in
// Core suffices because a core runs one protocol at a time.
type runFrame struct {
	c    *Core
	s    Stepper // nil once the last step has been emitted
	step int
	prog Prog
}

// progWindow is how many instructions of a core's run program live in
// the chip-wide array NewChipN carves up — enough for the longest step
// of the paper's k = 7 configuration (an interior node's chunk: 15
// ops). A longer step (k = 47's root polls 47 done flags) moves that
// core's buffer to the heap, once.
const progWindow = 16

// Run executes the protocol s emits as a machine section of this core's
// body, parking the simulated core on every flag that has not arrived.
func (c *Core) Run(s Stepper) {
	f := &c.run
	f.c, f.s, f.step = c, s, 0
	f.prog.Reset()
	c.proc.Exec(f)
}

func (f *runFrame) Step(*sim.Proc) sim.StepStatus {
	for f.prog.Done() {
		if f.s == nil {
			return sim.StepDone
		}
		f.prog.Reset()
		if !f.s.EmitStep(&f.prog, f.step) {
			f.s = nil
		}
		f.step++
	}
	return f.c.CallNext(&f.prog)
}
