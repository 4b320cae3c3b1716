package occoll

import (
	"repro/internal/core"
	"repro/internal/scc"
)

// Bcast delivers `lines` cache lines from the root's private memory at
// byte address addr to the same address on every core — OC-Bcast's §4
// chunk pipeline run over an occoll lane's own flag block (dnNotify/
// dnDone), with the §5.4 leaf-direct optimization always on. It is the
// blocking twin of IBcast; the classic core.Broadcaster remains the
// paper-faithful standalone broadcast with its own flag layout.
func (x *Collectives) Bcast(root, addr, lines int) {
	x.IBcast(root, addr, lines).Wait()
}

// IBcast is the non-blocking Bcast: it issues the broadcast and returns a
// Request to Test or Wait on while the core computes.
func (x *Collectives) IBcast(root, addr, lines int) *Request {
	return x.issue(protoIBcast, root, addr, lines, nil)
}

var protoIBcast = &protocol{"IBcast", []stepFn{bcastDown}}

// bcastDown broadcasts r.lines lines; bcastDownAll is the second half of
// AllGather, broadcasting the P concatenated blocks.
func bcastDown(r *Request, ch int) bool    { return bcastChunk(r, r.lines, ch) }
func bcastDownAll(r *Request, ch int) bool { return bcastChunk(r, r.lines*r.tree.P, ch) }

// bcastChunk is one step — chunk ch — of the OC-Bcast §4 chunk pipeline
// over the lane's own flag lines (dnNotify/dnDone), with the §5.4
// leaf-direct optimization always on: a leaf pulls each chunk from its
// parent's MPB straight to private memory. The pipeline delivers `lines`
// cache lines from the tree root's addr to the same address everywhere.
// Flags carry 1-based chunk sequence numbers.
func bcastChunk(r *Request, lines, ch int) (more bool) {
	l, t, x := r.lane, &r.tree, r.x
	me, nb := x.core.ID(), x.numBuffers()
	m := x.chunkSpan(ch, lines)
	chunkAddr := r.addr + ch*x.cfg.BufLines*scc.CacheLine
	buf, seq := l.bufLine(ch), uint64(ch)+1
	last := ch == x.nchunks(lines)-1

	switch {
	case t.Rank == 0:
		if ch >= nb {
			l.waitChildrenDone(t, seq-uint64(nb))
		}
		l.putMem(buf, chunkAddr, m)
		for _, child := range t.NotifyOwn {
			l.setFlag(child, l.dnNotifyLine(), seq)
		}
	case t.IsLeaf():
		l.wait(l.dnNotifyLine(), seq)
		for _, sib := range t.NotifyFwd {
			l.setFlag(sib, l.dnNotifyLine(), seq)
		}
		l.getMem(t.Parent, buf, chunkAddr, m)
		l.setFlag(t.Parent, l.dnDoneLine(t.ChildIdx), seq)
	default:
		l.wait(l.dnNotifyLine(), seq)
		for _, sib := range t.NotifyFwd {
			l.setFlag(sib, l.dnNotifyLine(), seq)
		}
		if ch >= nb {
			l.waitChildrenDone(t, seq-uint64(nb))
		}
		l.getMPB(t.Parent, buf, m)
		l.setFlag(t.Parent, l.dnDoneLine(t.ChildIdx), seq)
		for _, child := range t.NotifyOwn {
			l.setFlag(child, l.dnNotifyLine(), seq)
		}
		l.getMem(me, buf, chunkAddr, m)
	}
	if last {
		// Drain: my children must have consumed my last staged chunks.
		l.waitChildrenDone(t, seq)
	}
	return !last
}

// waitChildrenDone waits until every child consumed chunk seq.
func (l *lane) waitChildrenDone(t *core.Tree, seq uint64) {
	for i := range t.Children {
		l.wait(l.dnDoneLine(i), seq)
	}
}
