package rma

import (
	"bytes"
	"testing"

	"repro/internal/scc"
	"repro/internal/sim"
)

// Every RMA op has two production drivers over one pre/post pair: the
// blocking entry point (bodies, occoll) and the Call* child frame
// (rcce's and core's protocol frames). This test runs one op sequence
// through each on twin chips and requires them indistinguishable.

// twinKind selects the op a twinOp issues.
type twinKind uint8

const (
	twinPut twinKind = iota
	twinGetMPB
	twinGetMem
	twinSetFlag
	twinWaitGE
	twinWaitEQ
)

// twinOp is one step of the script: kind plus the op's positional
// arguments (peer, two line/address operands, line count) and the flag
// value for the flag ops.
type twinOp struct {
	kind       twinKind
	peer, x, y int
	m          int
	flagLine   int
	flagVal    uint64
}

const (
	twinReadyLine = 20
	twinAckLine   = 21
	twinDstAddr   = 4096
)

// twinScript is core me's side of a ring exchange that touches every
// framed op: stage 2+me lines into the own MPB, flag the next core,
// wait (≥) for the previous core's flag, pull its lines MPB-to-MPB, ack
// it with an exact tag, wait (==) for the next core's ack, and drain the
// pulled lines to private memory. Sizes and hop distances differ per
// core, so some waits block and some are already satisfied.
func twinScript(me, n int) []twinOp {
	next, prev := (me+1)%n, (me+n-1)%n
	pm := 2 + prev
	return []twinOp{
		{kind: twinPut, peer: me, x: 0, y: 0, m: 2 + me},
		{kind: twinSetFlag, peer: next, flagLine: twinReadyLine, flagVal: 1},
		{kind: twinWaitGE, flagLine: twinReadyLine, flagVal: 1},
		{kind: twinGetMPB, peer: prev, x: 0, y: 8, m: pm},
		{kind: twinSetFlag, peer: prev, flagLine: twinAckLine, flagVal: 100 + uint64(me)},
		{kind: twinWaitEQ, flagLine: twinAckLine, flagVal: 100 + uint64(next)},
		{kind: twinGetMem, peer: me, x: 8, y: twinDstAddr, m: pm},
	}
}

// runBlocking issues the script through the blocking entry points.
func (op twinOp) runBlocking(c *Core) {
	switch op.kind {
	case twinPut:
		c.PutMemToMPB(op.peer, op.x, op.y, op.m)
	case twinGetMPB:
		c.GetMPBToMPB(op.peer, op.x, op.y, op.m)
	case twinGetMem:
		c.GetMPBToMem(op.peer, op.x, op.y, op.m)
	case twinSetFlag:
		c.SetFlag(op.peer, op.flagLine, op.flagVal)
	case twinWaitGE:
		c.WaitFlagGE(op.flagLine, op.flagVal)
	case twinWaitEQ:
		c.WaitFlagEQ(op.flagLine, op.flagVal)
	}
}

// twinFrame issues the script through the Call* child frames.
type twinFrame struct {
	c   *Core
	ops []twinOp
	pc  int
}

func (f *twinFrame) Step(*sim.Proc) sim.StepStatus {
	if f.pc == len(f.ops) {
		return sim.StepDone
	}
	op := f.ops[f.pc]
	f.pc++
	switch op.kind {
	case twinPut:
		return f.c.CallPutMemToMPB(op.peer, op.x, op.y, op.m)
	case twinGetMPB:
		return f.c.CallGetMPBToMPB(op.peer, op.x, op.y, op.m)
	case twinGetMem:
		return f.c.CallGetMPBToMem(op.peer, op.x, op.y, op.m)
	case twinSetFlag:
		return f.c.CallSetFlag(op.peer, op.flagLine, op.flagVal)
	case twinWaitGE:
		return f.c.CallWaitFlagGE(op.flagLine, op.flagVal)
	default:
		return f.c.CallWaitFlagEQ(op.flagLine, op.flagVal)
	}
}

func twinPayload(core int) []byte {
	b := make([]byte, (2+core)*scc.CacheLine)
	for i := range b {
		b[i] = byte(i*3 + core*17 + 1)
	}
	return b
}

// TestBlockingCallTwins requires identical per-core final clocks,
// counter rows, switch counts and delivered bytes from both drivers.
func TestBlockingCallTwins(t *testing.T) {
	const n = 4
	run := func(framed bool) (*Chip, []sim.Time) {
		chip := NewChipN(scc.DefaultConfig(), n)
		for c := 0; c < n; c++ {
			chip.Private(c).Write(0, twinPayload(c))
		}
		finals := make([]sim.Time, n)
		frames := make([]twinFrame, n)
		chip.Run(func(c *Core) {
			ops := twinScript(c.ID(), n)
			if framed {
				frames[c.ID()] = twinFrame{c: c, ops: ops}
				c.Exec(&frames[c.ID()])
			} else {
				for _, op := range ops {
					op.runBlocking(c)
				}
			}
			finals[c.ID()] = c.Now()
		})
		return chip, finals
	}
	bChip, bFinals := run(false)
	fChip, fFinals := run(true)
	for c := 0; c < n; c++ {
		if bFinals[c] != fFinals[c] {
			t.Errorf("core %d final clock %v (blocking) vs %v (Call*)", c, bFinals[c], fFinals[c])
		}
		if bChip.Counter[c] != fChip.Counter[c] {
			t.Errorf("core %d counters %+v (blocking) vs %+v (Call*)", c, bChip.Counter[c], fChip.Counter[c])
		}
		want := twinPayload((c + n - 1) % n)
		for _, chip := range []*Chip{bChip, fChip} {
			got := make([]byte, len(want))
			chip.Private(c).Read(got, twinDstAddr, len(got))
			if !bytes.Equal(got, want) {
				t.Errorf("core %d did not receive its predecessor's lines", c)
			}
		}
	}
	if b, f := bChip.Engine.Switches(), fChip.Engine.Switches(); b != f || b == 0 {
		t.Errorf("switch count %d (blocking) vs %d (Call*), want equal and non-zero", b, f)
	}
}
