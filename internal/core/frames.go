package core

import (
	"repro/internal/scc"
	"repro/internal/sim"
)

// This file holds the OC-Bcast chunk pipeline of §4 itself, as a
// sim.Frame state machine: the root's and a non-root's side of the
// pipeline as a program counter over rma Call* ops. It is the
// pipeline's only form — Bcast validates, fences, builds the tree, fills
// the broadcaster's embedded frame and Execs it; the committed digests
// (internal/harness/testdata/mode_digests.json) pin the timings.

// bcastFrame program counter values. The r* states walk the root's
// pipeline, the n* states a non-root's; a frame uses one family only.
const (
	rDoneWait uint8 = iota // root: wait for the buffer's previous chunk
	rPut                   // root: stage the chunk into its own MPB
	rNotify                // root: notify the first children of its tree
	rFinal                 // root: final done-flag poll frees the MPB

	nNotifyWait // non-root: wait to learn the chunk reached the parent
	nFwd        // non-root: forward the notification to siblings
	nLeafDone   // leaf-direct: release the parent's buffer
	nDoneWait   // non-root: wait for own buffer's previous chunk
	nDone       // non-root: tell the parent the chunk is consumed
	nNotify     // non-root: wake the own subtree
	nAdvance    // non-root: next chunk
)

// bcastFrame is one broadcast's chunk pipeline as a resumable machine;
// the embedded instance on Broadcaster suffices because a core runs at
// most one broadcast at a time. ch is the chunk index, i the position
// in whichever per-chunk flag loop the current state iterates.
type bcastFrame struct {
	b           *Broadcaster
	t           Tree
	addr, lines int
	nchunks, nb int
	ch, i       int
	pc          uint8
}

// seq is the chunk's flag value: the monotonic sequence base plus the
// 1-based chunk number (a method, not a closure, so frames stay
// allocation-free).
func (f *bcastFrame) seq(ch int) uint64 { return f.b.base + uint64(ch) + 1 }

// chunk reports the current chunk's size in lines, MPB buffer line and
// private-memory byte address.
func (f *bcastFrame) chunk(cfg Config) (m, buf, chunkAddr int) {
	m = f.lines - f.ch*cfg.BufLines
	if m > cfg.BufLines {
		m = cfg.BufLines
	}
	return m, cfg.bufLine(f.ch), f.addr + f.ch*cfg.BufLines*scc.CacheLine
}

func (f *bcastFrame) Step(proc *sim.Proc) sim.StepStatus {
	c, cfg := f.b.core, f.b.cfg
	for {
		switch f.pc {
		// ---- root ----
		case rDoneWait:
			if f.ch == f.nchunks {
				f.i = 0
				f.pc = rFinal
				continue
			}
			// Reuse the buffer only after every child consumed the chunk
			// that previously occupied it.
			if f.ch >= f.nb && f.i < len(f.t.Children) {
				f.i++
				return c.CallWaitFlagGE(cfg.doneLine(f.i-1), f.seq(f.ch-f.nb))
			}
			f.pc = rPut
		case rPut:
			m, buf, chunkAddr := f.chunk(cfg)
			f.i = 0
			f.pc = rNotify
			return c.CallPutMemToMPB(c.ID(), buf, chunkAddr, m)
		case rNotify:
			if f.i < len(f.t.NotifyOwn) {
				f.i++
				return c.CallSetFlag(f.t.NotifyOwn[f.i-1], cfg.notifyLine(), f.seq(f.ch))
			}
			f.ch++
			f.i = 0
			f.pc = rDoneWait
		case rFinal:
			// The root frees its MPB: poll all k done flags for the final
			// chunk (flags are monotone, so the last chunk's sequence
			// covers all earlier ones) — the k=47 polling cost of §5.2.3.
			if f.i < len(f.t.Children) {
				f.i++
				return c.CallWaitFlagGE(cfg.doneLine(f.i-1), f.seq(f.nchunks-1))
			}
			f.b.base += uint64(f.nchunks)
			return sim.StepDone

		// ---- non-root ----
		case nNotifyWait:
			if f.ch == f.nchunks {
				f.b.base += uint64(f.nchunks)
				return sim.StepDone
			}
			f.i = 0
			f.pc = nFwd
			return c.CallWaitFlagGE(cfg.notifyLine(), f.seq(f.ch))
		case nFwd:
			if f.i < len(f.t.NotifyFwd) {
				f.i++
				return c.CallSetFlag(f.t.NotifyFwd[f.i-1], cfg.notifyLine(), f.seq(f.ch))
			}
			if cfg.LeafDirect && f.t.IsLeaf() {
				// §5.4 optimization: a leaf serves nobody, so it pulls the
				// chunk straight into private memory and releases the
				// parent's buffer — one MPB pass saved per chunk.
				m, buf, chunkAddr := f.chunk(cfg)
				f.pc = nLeafDone
				return c.CallGetMPBToMem(f.t.Parent, buf, chunkAddr, m)
			}
			f.i = 0
			f.pc = nDoneWait
		case nLeafDone:
			f.pc = nAdvance
			return c.CallSetFlag(f.t.Parent, cfg.doneLine(f.t.ChildIdx), f.seq(f.ch))
		case nDoneWait:
			// Intermediate nodes must not overwrite a buffer their own
			// children are still reading.
			if !f.t.IsLeaf() && f.ch >= f.nb && f.i < len(f.t.Children) {
				f.i++
				return c.CallWaitFlagGE(cfg.doneLine(f.i-1), f.seq(f.ch-f.nb))
			}
			m, buf, _ := f.chunk(cfg)
			f.pc = nDone
			return c.CallGetMPBToMPB(f.t.Parent, buf, buf, m)
		case nDone:
			f.i = 0
			f.pc = nNotify
			return c.CallSetFlag(f.t.Parent, cfg.doneLine(f.t.ChildIdx), f.seq(f.ch))
		case nNotify:
			if f.i < len(f.t.NotifyOwn) {
				f.i++
				return c.CallSetFlag(f.t.NotifyOwn[f.i-1], cfg.notifyLine(), f.seq(f.ch))
			}
			m, buf, chunkAddr := f.chunk(cfg)
			f.pc = nAdvance
			return c.CallGetMPBToMem(c.ID(), buf, chunkAddr, m)
		default: // nAdvance
			f.ch++
			f.pc = nNotifyWait
		}
	}
}
