package core

import (
	"repro/internal/rma"
	"repro/internal/scc"
)

// This file holds the OC-Bcast chunk pipeline of §4 itself, as a step
// program (rma.Prog): one chunk of the root's, an intermediate node's or
// a leaf's side, emitted by one function for both users — the standalone
// Broadcaster (occast.go) and the one-sided collectives' broadcast half
// (internal/occoll), which runs it over a lane's own flag block. The
// committed digests (testdata/protocol_digests.json, harness's
// mode_digests.json, occoll's request_digests.json) pin the timings.

// Pipeline is one broadcast of Lines cache lines at private address Addr
// down Tree, over an MPB layout: NB chunk buffers of BufLines lines
// starting at line Data, the notify flag at line Notify and child i's
// done flag at Notify+1+i. Flags carry Base plus the 1-based chunk
// number.
type Pipeline struct {
	Tree         *Tree
	Data, Notify int
	NB, BufLines int
	Base         uint64
	// LeafDirect is the §5.4 optimization: a leaf serves nobody, so it
	// pulls each chunk from its parent's MPB straight into private
	// memory — one MPB pass saved per chunk.
	LeafDirect bool
	// Drain makes this node wait, after its last chunk, until its
	// children consumed everything it staged, leaving its MPB free.
	Drain       bool
	Addr, Lines int
}

// BufLines is a step instruction's 8-bit line count, MPB lines its
// 16-bit line numbers.
const _ = uint8(scc.MPBLinesPerCore - 1)

// EmitChunk emits this node's ops for chunk ch (0, 1, …) and reports
// whether more chunks follow.
//
// root: wait for the chunk's buffer to be consumed (done flags), put the
// chunk from private memory into its own MPB, notify the first two
// children of its binary notification tree.
//
// non-root: wait notifyFlag; (i) forward the notification within the
// parent's notification tree; (ii) get the chunk from the parent's MPB
// into its own MPB (waiting for its own buffer to be free first, if it
// has children); (iii) set its doneFlag in the parent's MPB; (iv) notify
// the first two of its own children; (v) get the chunk from its MPB to
// private off-chip memory.
func (pl *Pipeline) EmitChunk(p *rma.Prog, ch int) (more bool) {
	t := pl.Tree
	m := pl.Lines - ch*pl.BufLines
	if m > pl.BufLines {
		m = pl.BufLines
	}
	chunkAddr := pl.Addr + ch*pl.BufLines*scc.CacheLine
	buf, seq := pl.Data+(ch%pl.NB)*pl.BufLines, pl.Base+uint64(ch)+1
	last := (ch+1)*pl.BufLines >= pl.Lines

	switch {
	case t.Rank == 0:
		// Reuse the buffer only after every child consumed the chunk
		// that previously occupied it.
		if ch >= pl.NB {
			pl.waitChildrenDone(p, seq-uint64(pl.NB))
		}
		p.PutMem(buf, chunkAddr, m)
		pl.notify(p, t.NotifyOwn, seq)
	case pl.LeafDirect && t.IsLeaf():
		p.WaitGE(pl.Notify, seq)
		pl.notify(p, t.NotifyFwd, seq)
		p.GetMem(t.Parent, buf, chunkAddr, m)
		p.SetFlag(t.Parent, pl.Notify+1+t.ChildIdx, seq)
	default:
		p.WaitGE(pl.Notify, seq)
		pl.notify(p, t.NotifyFwd, seq)
		// Intermediate nodes must not overwrite a buffer their own
		// children are still reading.
		if ch >= pl.NB {
			pl.waitChildrenDone(p, seq-uint64(pl.NB))
		}
		p.GetMPB(t.Parent, buf, m)
		p.SetFlag(t.Parent, pl.Notify+1+t.ChildIdx, seq)
		pl.notify(p, t.NotifyOwn, seq)
		p.GetMem(t.Self, buf, chunkAddr, m)
	}
	if last && pl.Drain {
		// Flags are monotone, so the last chunk's sequence covers all
		// earlier ones — for the root, the k=47 polling cost of §5.2.3.
		pl.waitChildrenDone(p, seq)
	}
	return !last
}

// notify sets the notify flag of each core in dsts to seq.
func (pl *Pipeline) notify(p *rma.Prog, dsts []int, seq uint64) {
	for _, dst := range dsts {
		p.SetFlag(dst, pl.Notify, seq)
	}
}

// waitChildrenDone waits until every child consumed chunk seq.
func (pl *Pipeline) waitChildrenDone(p *rma.Prog, seq uint64) {
	for i := range pl.Tree.Children {
		p.WaitGE(pl.Notify+1+i, seq)
	}
}
