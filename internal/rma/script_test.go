package rma

import (
	"bytes"
	"testing"

	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Every RMA op is one pre/post pair behind one frame, entered two ways:
// a blocking entry point Execs the frame as its own machine section, a
// protocol frame runs the pre step and pushes it as a child (what
// Core.CallNext does for a step program's instruction). This test runs
// one op script through each on a 4-core chip and pins both to the
// clocks, counters and switch count recorded when every op still had a
// hand-written blocking body (all of which the child forms equalled).

// scriptKind selects the op a scriptOp issues.
type scriptKind uint8

const (
	opsPut scriptKind = iota
	opsGetMPB
	opsGetMem
	opsCombine
	opsCompute
	opsSetFlag
	opsWaitGE
	opsPoll // probe, then charge the poll read if the flag arrived
)

// scriptOp is one step of the script: kind plus the op's positional
// arguments (peer, two line/address operands, line count) and the flag
// value for the flag ops.
type scriptOp struct {
	kind       scriptKind
	peer, x, y int
	m          int
	flagLine   int
	flagVal    uint64
}

const (
	scriptReadyLine = 20
	scriptAckLine   = 21
	scriptDstAddr   = 4096
	scriptCompute   = 1500 * sim.Nanosecond
	scriptAckTag    = 7<<32 | 100
)

// opScript is core me's side of a ring exchange that touches every
// framed op: stage 2+me lines into the own MPB, flag the next core,
// wait (≥) for the previous core's flag, pull its lines MPB-to-MPB, ack
// it under an owner tag, wait for the next core's tagged ack, fold the
// previous core's lines in a second time, compute, poll the ready flag
// once for a value that arrived and once for one that never does, and
// drain the doubled lines to private memory. Sizes and hop distances
// differ per core, so some waits block and some are already satisfied.
func opScript(me, n int) []scriptOp {
	next, prev := (me+1)%n, (me+n-1)%n
	pm := 2 + prev
	return []scriptOp{
		{kind: opsPut, peer: me, x: 0, y: 0, m: 2 + me},
		{kind: opsSetFlag, peer: next, flagLine: scriptReadyLine, flagVal: 1},
		{kind: opsWaitGE, flagLine: scriptReadyLine, flagVal: 1},
		{kind: opsGetMPB, peer: prev, x: 0, y: 8, m: pm},
		{kind: opsSetFlag, peer: prev, flagLine: scriptAckLine, flagVal: scriptAckTag + uint64(me)},
		{kind: opsWaitGE, flagLine: scriptAckLine, flagVal: scriptAckTag + uint64(next)},
		{kind: opsCombine, peer: prev, x: 0, y: 8, m: pm},
		{kind: opsCompute},
		{kind: opsPoll, flagLine: scriptReadyLine, flagVal: 1},
		{kind: opsPoll, flagLine: scriptReadyLine, flagVal: 2},
		{kind: opsGetMem, peer: me, x: 8, y: scriptDstAddr, m: pm},
	}
}

func addBytes(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// call issues the op as a child frame of the running machine — its pre
// step, then the push; ok is false for a poll whose flag has not
// arrived (nothing was pushed).
func (op scriptOp) call(c *Core) (st sim.StepStatus, ok bool) {
	f := &c.opf
	switch op.kind {
	case opsPut:
		c.putMemPre(f, op.peer, op.x, op.y, op.m)
	case opsGetMPB:
		c.getMPBPre(f, op.peer, op.x, op.y, op.m)
	case opsGetMem:
		c.getMemPre(f, op.peer, op.x, op.y, op.m)
	case opsCombine:
		c.combinePre(f, op.peer, op.x, op.y, op.m, addBytes)
	case opsCompute:
		c.computePre(f, scriptCompute)
	case opsSetFlag:
		c.setFlagPre(f, op.peer, op.flagLine, op.flagVal)
	case opsWaitGE:
		c.waitPre(f, op.flagLine, op.flagVal)
	default:
		if !c.ProbeFlagGE(op.flagLine, op.flagVal) {
			return 0, false
		}
		c.pollPre(f, op.flagLine)
	}
	return c.call(), true
}

// GetMPBCombine is the combining get's blocking entry point; protocols
// issue it as a step program's Combine instruction.
func (c *Core) GetMPBCombine(src, srcLine, dstLine, m int, combine func(dst, src []byte)) {
	c.combinePre(&c.opf, src, srcLine, dstLine, m, combine)
	c.proc.Exec(&c.opf)
}

// runBlocking issues the op through its blocking entry point (a poll
// has none: it is a one-op machine section).
func (op scriptOp) runBlocking(c *Core) {
	switch op.kind {
	case opsPut:
		c.PutMemToMPB(op.peer, op.x, op.y, op.m)
	case opsGetMPB:
		c.GetMPBToMPB(op.peer, op.x, op.y, op.m)
	case opsGetMem:
		c.GetMPBToMem(op.peer, op.x, op.y, op.m)
	case opsCombine:
		c.GetMPBCombine(op.peer, op.x, op.y, op.m, addBytes)
	case opsCompute:
		c.Compute(scriptCompute)
	case opsSetFlag:
		c.SetFlag(op.peer, op.flagLine, op.flagVal)
	case opsWaitGE:
		c.WaitFlagGE(op.flagLine, op.flagVal)
	default:
		c.Exec(&scriptFrame{c: c, ops: []scriptOp{op}})
	}
}

// scriptFrame issues a script as child frames.
type scriptFrame struct {
	c   *Core
	ops []scriptOp
	pc  int
}

func (f *scriptFrame) Step(*sim.Proc) sim.StepStatus {
	for f.pc < len(f.ops) {
		op := f.ops[f.pc]
		f.pc++
		if st, ok := op.call(f.c); ok {
			return st
		}
	}
	return sim.StepDone
}

func scriptPayload(core int) []byte {
	b := make([]byte, (2+core)*scc.CacheLine)
	for i := range b {
		b[i] = byte(i*3 + core*17 + 1)
	}
	return b
}

// TestOpScriptDigest requires the recorded per-core final clocks,
// counter rows, switch count and the delivered bytes from both ways of
// entering the ops.
func TestOpScriptDigest(t *testing.T) {
	const n = 4
	wantFinal := [n]sim.Time{11628000, 7595000, 9281000, 10593000}
	wantCtr := [n]trace.CoreCounters{
		{MPBReadLines: 23, MPBWriteLines: 14, MemReadLines: 2, MemWriteLines: 5},
		{MPBReadLines: 11, MPBWriteLines: 9, MemReadLines: 3, MemWriteLines: 2},
		{MPBReadLines: 15, MPBWriteLines: 12, MemReadLines: 4, MemWriteLines: 3},
		{MPBReadLines: 19, MPBWriteLines: 15, MemReadLines: 5, MemWriteLines: 4},
	}
	for i := range wantCtr {
		c := &wantCtr[i]
		c.FlagSets, c.FlagWaits, c.FlagPolls, c.PutOps, c.GetOps = 2, 3, 1, 1, 3
	}
	const wantSwitches = 32

	for _, framed := range []bool{false, true} {
		chip := NewChipN(scc.DefaultConfig(), n)
		for c := 0; c < n; c++ {
			chip.Private(c).Write(0, scriptPayload(c))
		}
		var finals [n]sim.Time
		chip.Run(func(c *Core) {
			ops := opScript(c.ID(), n)
			if framed {
				c.Exec(&scriptFrame{c: c, ops: ops})
			} else {
				for _, op := range ops {
					op.runBlocking(c)
				}
			}
			finals[c.ID()] = c.Now()
		})
		for c := 0; c < n; c++ {
			if finals[c] != wantFinal[c] {
				t.Errorf("framed=%v core %d final clock %d, recorded %d", framed, c, finals[c], wantFinal[c])
			}
			if chip.Counter[c] != wantCtr[c] {
				t.Errorf("framed=%v core %d counters %+v, recorded %+v", framed, c, chip.Counter[c], wantCtr[c])
			}
			want := scriptPayload((c + n - 1) % n)
			for i := range want {
				want[i] *= 2
			}
			got := make([]byte, len(want))
			chip.Private(c).Read(got, scriptDstAddr, len(got))
			if !bytes.Equal(got, want) {
				t.Errorf("framed=%v core %d did not receive its predecessor's lines, doubled", framed, c)
			}
		}
		if sw := chip.Engine.Switches(); sw != wantSwitches {
			t.Errorf("framed=%v switch count %d, recorded %d", framed, sw, wantSwitches)
		}
	}
}
