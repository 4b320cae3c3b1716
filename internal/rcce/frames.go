package rcce

import (
	"repro/internal/scc"
	"repro/internal/sim"
)

// This file holds the RCCE protocols themselves, as sim.Frame state
// machines: Barrier's gather-release tree and the chunked
// Send/Recv/SendRecv handshakes, each a program counter over rma Call*
// ops. It is their only form — the Port methods in rcce.go validate,
// fill the port's embedded frame and Exec it; the committed digests
// (internal/harness/testdata/mode_digests.json) pin the timings.

// barrierFrame program counter values.
const (
	bWaitA    uint8 = iota // wait for left child's arrival
	bWaitB                 // wait for right child's arrival
	bReport                // report arrival to parent
	bWaitRel               // wait for parent's release
	bRelLeft               // release left child
	bRelRight              // release right child
	bDone
)

// barrierFrame is Barrier's tree walk as a resumable machine. The
// epoch was already bumped by Barrier before Exec.
type barrierFrame struct {
	p  *Port
	pc uint8
}

func (f *barrierFrame) Step(proc *sim.Proc) sim.StepStatus {
	pt := f.p
	c := pt.core
	me := c.ID()
	n := c.N()
	left, right := 2*me+1, 2*me+2
	for {
		switch f.pc {
		case bWaitA:
			f.pc = bWaitB
			if left < n {
				return c.CallWaitFlagGE(lineBarrierChildA, pt.epoch)
			}
		case bWaitB:
			f.pc = bReport
			if right < n {
				return c.CallWaitFlagGE(lineBarrierChildB, pt.epoch)
			}
		case bReport:
			if me == 0 {
				f.pc = bRelLeft
				continue
			}
			parent := (me - 1) / 2
			childLine := lineBarrierChildA
			if me == 2*parent+2 {
				childLine = lineBarrierChildB
			}
			f.pc = bWaitRel
			return c.CallSetFlag(parent, childLine, pt.epoch)
		case bWaitRel:
			f.pc = bRelLeft
			return c.CallWaitFlagGE(lineBarrierRelease, pt.epoch)
		case bRelLeft:
			f.pc = bRelRight
			if left < n {
				return c.CallSetFlag(left, lineBarrierRelease, pt.epoch)
			}
		case bRelRight:
			f.pc = bDone
			if right < n {
				return c.CallSetFlag(right, lineBarrierRelease, pt.epoch)
			}
		default:
			return sim.StepDone
		}
	}
}

// twoFrame op selector.
type twoOp uint8

const (
	twoSend twoOp = iota
	twoRecv
	twoSendRecv
)

// twoFrame program counter values. Each op starts at its own loop head.
const (
	sLoop uint8 = iota // Send: next chunk — stage into own MPB
	sFlag              // flag the receiver
	sAck               // await the consumption ack
	sNext              // advance the chunk offset

	rLoop // Recv: next chunk — await the sender's flag
	rGet  // pull the chunk
	rAck  // ack consumption
	rNext // advance the chunk offset

	xLoop     // SendRecv: next round — maybe stage outgoing
	xSendFlag // flag the receiver
	xSendDone // outgoing chunk staged+flagged
	xRecvGet  // incoming flag seen: pull the chunk
	xRecvAck  // ack the incoming chunk
	xRecvDone // incoming chunk consumed
	xAck      // await the ack for this round's staged chunk
)

// twoFrame is the chunk loop of Send, Recv or SendRecv as a resumable
// machine; one embedded instance per Port suffices because a core runs
// at most one two-sided call at a time (SendRecv is the one call that
// interleaves a send and a receive, and it is a single frame here).
type twoFrame struct {
	p  *Port
	op twoOp
	pc uint8

	dst, src            int
	sendAddr, sendLines int
	recvAddr, recvLines int
	sendOff, recvOff    int
	m, rm               int
	seq                 uint64
	staged              bool
}

func (f *twoFrame) Step(proc *sim.Proc) sim.StepStatus {
	pt := f.p
	c := pt.core
	me := c.ID()
	for {
		switch f.pc {
		// ---- Send ----
		case sLoop:
			if f.sendOff >= f.sendLines {
				return sim.StepDone
			}
			f.m = chunkLines(f.sendLines - f.sendOff)
			f.seq = next(&pt.sendSeq, f.dst)
			f.pc = sFlag
			return c.CallPutMemToMPB(me, 0, f.sendAddr+f.sendOff*scc.CacheLine, f.m)
		case sFlag:
			f.pc = sAck
			return c.CallSetFlag(f.dst, lineSent, tag(me, f.seq))
		case sAck:
			f.pc = sNext
			return c.CallWaitFlagEQ(lineReady, tag(f.dst, f.seq))
		case sNext:
			f.sendOff += f.m
			f.pc = sLoop

		// ---- Recv ----
		case rLoop:
			if f.recvOff >= f.recvLines {
				return sim.StepDone
			}
			f.rm = chunkLines(f.recvLines - f.recvOff)
			f.seq = next(&pt.recvSeq, f.src)
			f.pc = rGet
			return c.CallWaitFlagEQ(lineSent, tag(f.src, f.seq))
		case rGet:
			f.pc = rAck
			return c.CallGetMPBToMem(f.src, 0, f.recvAddr+f.recvOff*scc.CacheLine, f.rm)
		case rAck:
			f.pc = rNext
			return c.CallSetFlag(f.src, lineReady, tag(me, f.seq))
		case rNext:
			f.recvOff += f.rm
			f.pc = rLoop

		// ---- SendRecv ----
		case xLoop:
			if f.sendOff >= f.sendLines && f.recvOff >= f.recvLines {
				return sim.StepDone
			}
			f.staged = false
			if f.sendOff < f.sendLines {
				f.m = chunkLines(f.sendLines - f.sendOff)
				f.seq = next(&pt.sendSeq, f.dst)
				f.pc = xSendFlag
				return c.CallPutMemToMPB(me, 0, f.sendAddr+f.sendOff*scc.CacheLine, f.m)
			}
			f.pc = xSendDone
		case xSendFlag:
			f.pc = xSendDone
			f.sendOff += f.m
			f.staged = true
			return c.CallSetFlag(f.dst, lineSent, tag(me, f.seq))
		case xSendDone:
			if f.recvOff < f.recvLines {
				f.rm = chunkLines(f.recvLines - f.recvOff)
				f.pc = xRecvGet
				return c.CallWaitFlagEQ(lineSent, tag(f.src, next(&pt.recvSeq, f.src)))
			}
			f.pc = xAck
		case xRecvGet:
			f.pc = xRecvAck
			return c.CallGetMPBToMem(f.src, 0, f.recvAddr+f.recvOff*scc.CacheLine, f.rm)
		case xRecvAck:
			f.pc = xRecvDone
			return c.CallSetFlag(f.src, lineReady, tag(me, pt.recvSeq[f.src]))
		case xRecvDone:
			f.recvOff += f.rm
			f.pc = xAck
		default: // xAck
			f.pc = xLoop
			if f.staged {
				return c.CallWaitFlagEQ(lineReady, tag(f.dst, f.seq))
			}
		}
	}
}

// chunkLines caps one chunk at the RCCE staging-buffer size.
func chunkLines(rem int) int {
	if rem > PayloadLines {
		return PayloadLines
	}
	return rem
}
