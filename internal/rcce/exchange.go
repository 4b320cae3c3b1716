package rcce

import (
	"repro/internal/rma"
	"repro/internal/scc"
)

// This file holds the two-sided handshake itself: one chunk round of a
// call, emitted once for Send, Recv and SendRecv alike — Send and Recv
// are a SendRecv with one side empty. internal/core/testdata/
// protocol_digests.json pins the timings.

// exchange is one blocking two-sided call's arguments: sendLines lines
// at sendAddr go to dst, recvLines lines from src land at recvAddr; a
// side with no lines is absent. One embedded instance per Port suffices
// because a core runs at most one two-sided call at a time.
type exchange struct {
	p                   *Port
	dst, src            int
	sendAddr, sendLines int
	recvAddr, recvLines int
}

// EmitStep emits the call's chunk round `round`.
func (x *exchange) EmitStep(p *rma.Prog, round int) (more bool) {
	return x.p.EmitSendRecv(p, round, x.dst, x.sendAddr, x.sendLines, x.src, x.recvAddr, x.recvLines)
}

// EmitSendRecv emits chunk round `round` of a two-sided call — sendLines
// lines at sendAddr to dst, recvLines lines from src to recvAddr, either
// side empty when its line count is 0 — and reports whether more rounds
// follow: stage the outgoing chunk into the own MPB (a local put) and
// flag the receiver; await the sender's flag, pull the incoming chunk
// with a one-sided get and ack it; then await the ack for the chunk
// staged this round before the staging buffer is reused. Staging and
// flagging come BEFORE blocking on the incoming chunk, which is what
// makes ring exchanges deadlock-free.
func (pt *Port) EmitSendRecv(p *rma.Prog, round, dst, sendAddr, sendLines, src, recvAddr, recvLines int) (more bool) {
	me, off := pt.core.ID(), round*scc.RCCEStaging
	sm, rm := min(sendLines-off, scc.RCCEStaging), min(recvLines-off, scc.RCCEStaging)
	var seq uint64
	if sm > 0 {
		seq = next(&pt.row(pt.peer(dst)).send)
		p.PutMem(0, sendAddr+off*scc.CacheLine, sm)
		p.SetFlag(dst, scc.RCCESent, tag(me, seq))
	}
	if rm > 0 {
		rseq := next(&pt.row(pt.peer(src)).recv)
		p.WaitGE(scc.RCCESent, tag(src, rseq))
		p.GetMem(src, 0, recvAddr+off*scc.CacheLine, rm)
		p.SetFlag(src, scc.RCCEReady, tag(me, rseq))
	}
	if sm > 0 {
		p.WaitGE(scc.RCCEReady, tag(dst, seq))
	}
	return sendLines > off+scc.RCCEStaging || recvLines > off+scc.RCCEStaging
}
