package occoll

import "repro/internal/scc"

// Scatter distributes P `lines`-line blocks from the root: core i ends up
// with the block stored at addr + i·lines·32 in the root's private
// memory, at the same address in its own memory. The blocks travel down
// the k-ary tree store-and-forward: each node receives its whole
// subtree's blocks through its parent's MPB (double-buffered, pipelined),
// then streams each child's subtree onward from private memory. Interior
// nodes hold their descendants' blocks afterwards, like the two-sided
// recursive-halving scatter.
func (x *Collectives) Scatter(root, addr, lines int) {
	x.IScatter(root, addr, lines).Wait()
}

// IScatter is the non-blocking Scatter: it issues the distribution and
// returns a Request to Test or Wait on while the core computes.
func (x *Collectives) IScatter(root, addr, lines int) *Request {
	return x.issue(protoIScatter, root, addr, lines, nil)
}

var protoIScatter = &protocol{"IScatter", []stepFn{recvSubtree, streamDown}}

// Gather collects each core's `lines`-line block onto the root: core i's
// block ends up at addr + i·lines·32 in the root's private memory. The
// mirror of Scatter: each node first collects its children's subtree
// streams into final addresses, then streams its own subtree (its block
// first, descendants after, DFS order) up through its own MPB.
func (x *Collectives) Gather(root, addr, lines int) {
	x.IGather(root, addr, lines).Wait()
}

// IGather is the non-blocking Gather: it issues the collection and
// returns a Request to Test or Wait on while the core computes.
func (x *Collectives) IGather(root, addr, lines int) *Request {
	return x.issue(protoIGather, root, addr, lines, nil)
}

var protoIGather = &protocol{"IGather", []stepFn{gatherRecv, gatherSend}}

// AllGather exchanges every core's block so all cores hold all P blocks,
// id-ordered at addr: an OC-Gather onto core 0 fused with an OC-Bcast of
// the concatenated P·lines result down the same tree.
func (x *Collectives) AllGather(addr, lines int) {
	x.IAllGather(addr, lines).Wait()
}

// IAllGather is the non-blocking AllGather: it issues the fused
// gather+broadcast and returns a Request to Test or Wait on.
func (x *Collectives) IAllGather(addr, lines int) *Request {
	return x.issue(protoIAllGather, 0, addr, lines, nil)
}

var protoIAllGather = &protocol{"IAllGather", []stepFn{gatherRecv, gatherSend, bcastDownAll}}

// The scatter/gather streams move `lines`-line blocks in DFS preorder of
// a subtree, each block chunked through double-buffered MPB slots. One
// pipeline step is one chunk transfer; transfer sequence numbers are
// per-edge and 1-based and slot rotation follows the transfer index, so
// both ends of an edge agree without negotiation.

// chunk locates transfer `step` of a stream carrying the blocks of
// `ranks` in order: it is chunk step%nchunks of block step/nchunks. It
// returns the private address of that chunk and its line count; ok is
// false once the stream is exhausted.
func (r *Request) chunk(ranks []int, step int) (chunkAddr, m int, ok bool) {
	x, t := r.x, &r.tree
	nc := x.nchunks(r.lines)
	if step >= len(ranks)*nc {
		return 0, 0, false
	}
	chk := step % nc
	blockA := r.addr + rankID(ranks[step/nc], t.Root, t.P)*r.lines*scc.CacheLine
	return blockA + chk*x.cfg.BufLines*scc.CacheLine, x.chunkSpan(chk, r.lines), true
}

// childTransfer locates step `step` of the per-child subtree streams,
// which run one after the other in child order: child i's transfer tc
// (0-based). ok is false once every child's stream is exhausted.
func (r *Request) childTransfer(step int) (i, tc, chunkAddr, m int, ok bool) {
	t := &r.tree
	for i = range t.Children {
		ranks := preorder(t.Rank*t.K+1+i, t.P, t.K)
		if chunkAddr, m, ok = r.chunk(ranks, step); ok {
			return i, step, chunkAddr, m, true
		}
		step -= len(ranks) * r.x.nchunks(r.lines)
	}
	return 0, 0, 0, 0, false
}

// recvSubtree receives this node's subtree blocks from its parent, each
// chunk pulled from the parent's MPB slot to its final private address.
// The root receives nothing.
func recvSubtree(r *Request, step int) (more bool) {
	l, t, p := r.lane, &r.tree, &r.lane.prog
	chunkAddr, m, ok := r.chunk(preorder(t.Rank, t.P, t.K), step)
	if t.Rank == 0 || !ok {
		return false
	}
	tr := uint64(step) + 1
	p.WaitGE(l.dnNotifyLine(), tr)
	p.GetMem(t.Parent, l.slotLine(step%l.x.numBuffers()), chunkAddr, m)
	p.SetFlag(t.Parent, l.dnDoneLine(t.ChildIdx), tr)
	return true
}

// streamDown stages each child's subtree blocks from this node's private
// memory into its MPB slots and notifies the child, which pulls them
// with one-sided gets. Slots are shared across the per-child streams; an
// occupancy table delays each staging until the slot's previous occupant
// was consumed, and a final drain step leaves the MPB free.
func streamDown(r *Request, step int) (more bool) {
	l, t, p := r.lane, &r.tree, &r.lane.prog
	if t.IsLeaf() {
		return false
	}
	nb := l.x.numBuffers()
	if step == 0 {
		// The occupancy table is lane-local scratch, reused across
		// operations so the steady-state down-stream allocates nothing.
		if l.dnUsed == nil {
			l.dnUsed = new([2]occupant)
		}
		*l.dnUsed = [2]occupant{}
	}
	used := l.dnUsed[:nb]
	i, tc, chunkAddr, m, ok := r.childTransfer(step)
	if !ok {
		for _, u := range used {
			if u.seq > 0 {
				p.WaitGE(l.dnDoneLine(u.childIdx), u.seq)
			}
		}
		return false
	}
	s, seq := tc%nb, uint64(tc)+1
	if used[s].seq > 0 {
		p.WaitGE(l.dnDoneLine(used[s].childIdx), used[s].seq)
	}
	p.PutMem(l.slotLine(s), chunkAddr, m)
	p.SetFlag(t.Children[i], l.dnNotifyLine(), seq)
	used[s] = occupant{childIdx: i, seq: seq}
	return true
}

// gatherRecv collects each child's subtree stream into final private
// addresses with one-sided gets from the child's MPB.
func gatherRecv(r *Request, step int) (more bool) {
	l, p := r.lane, &r.lane.prog
	i, tc, chunkAddr, m, ok := r.childTransfer(step)
	if !ok {
		return false
	}
	child, seq := r.tree.Children[i], uint64(tc)+1
	p.WaitGE(l.upReadyLine(i), seq)
	p.GetMem(child, l.slotLine(tc%l.x.numBuffers()), chunkAddr, m)
	p.SetFlag(child, l.upConsumedLine(), seq)
	return true
}

// gatherSend streams this node's own subtree (its block first,
// descendants after) up through its MPB slots for the parent; the step
// after the last transfer drains the slots. The root sends nothing.
func gatherSend(r *Request, step int) (more bool) {
	l, t, p := r.lane, &r.tree, &r.lane.prog
	if t.Rank == 0 {
		return false
	}
	nb := l.x.numBuffers()
	chunkAddr, m, ok := r.chunk(preorder(t.Rank, t.P, t.K), step)
	if !ok {
		p.WaitGE(l.upConsumedLine(), uint64(step))
		return false
	}
	if step >= nb {
		p.WaitGE(l.upConsumedLine(), uint64(step+1-nb))
	}
	p.PutMem(l.slotLine(step%nb), chunkAddr, m)
	p.SetFlag(t.Parent, l.upReadyLine(t.ChildIdx), uint64(step)+1)
	return true
}
