package rcce

import (
	"repro/internal/rma"
	"repro/internal/scc"
)

// This file holds the two-sided handshake itself, as a step program
// (rma.Prog): one chunk round, emitted once for Send, Recv and SendRecv
// alike — Send and Recv are a SendRecv with one side empty. The Port
// methods in rcce.go validate, fill the port's embedded exchange and
// run it; internal/core/testdata/protocol_digests.json pins the
// timings.

// exchange is one two-sided call's arguments: sendLines lines at
// sendAddr go to dst, recvLines lines from src land at recvAddr; a side
// with no lines is absent. One embedded instance per Port suffices
// because a core runs at most one two-sided call at a time.
type exchange struct {
	p                   *Port
	dst, src            int
	sendAddr, sendLines int
	recvAddr, recvLines int
}

// A chunk's line count rides in a step instruction's 8-bit field.
const _ = uint8(PayloadLines)

// EmitStep emits chunk round `round`: stage the outgoing chunk into the
// own MPB (a local put) and flag the receiver; await the sender's flag,
// pull the incoming chunk with a one-sided get and ack it; then await
// the ack for the chunk staged this round before the staging buffer is
// reused. Staging and flagging come BEFORE blocking on the incoming
// chunk, which is what makes ring exchanges deadlock-free.
func (x *exchange) EmitStep(p *rma.Prog, round int) (more bool) {
	pt, me := x.p, x.p.core.ID()
	off := round * PayloadLines
	sm, rm := chunkLines(x.sendLines-off), chunkLines(x.recvLines-off)
	var seq uint64
	if sm > 0 {
		seq = next(&pt.sendSeq, x.dst)
		p.PutMem(0, x.sendAddr+off*scc.CacheLine, sm)
		p.SetFlag(x.dst, lineSent, tag(me, seq))
	}
	if rm > 0 {
		rseq := next(&pt.recvSeq, x.src)
		p.WaitEQ(lineSent, tag(x.src, rseq))
		p.GetMem(x.src, 0, x.recvAddr+off*scc.CacheLine, rm)
		p.SetFlag(x.src, lineReady, tag(me, rseq))
	}
	if sm > 0 {
		p.WaitEQ(lineReady, tag(x.dst, seq))
	}
	return x.sendLines > off+PayloadLines || x.recvLines > off+PayloadLines
}

// chunkLines caps one chunk at the RCCE staging-buffer size.
func chunkLines(rem int) int {
	if rem > PayloadLines {
		return PayloadLines
	}
	return rem
}
