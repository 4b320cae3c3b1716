package occoll

import "repro/internal/scc"

// AllGatherRing exchanges every core's `lines`-line block so all cores
// hold all P blocks id-ordered at addr — like AllGather, but with a
// one-sided *ring* instead of the gather+broadcast tree: at step t each
// core stages the block it received at step t−1 into its own MPB and its
// right neighbour pulls it with a one-sided get. P−1 steps move every
// block once per hop, so the algorithm is bandwidth-optimal (each core
// transfers (P−1)·lines once in and once out) where the tree funnels all
// P blocks through the root; the tree wins on latency for small blocks,
// the ring on bandwidth for large ones — the registry's tuner picks per
// size (internal/algsel).
func (x *Collectives) AllGatherRing(addr, lines int) {
	x.IAllGatherRing(addr, lines).Wait()
}

// IAllGatherRing is the non-blocking AllGatherRing: it issues the ring
// exchange and returns a Request to Test or Wait on while the core
// computes.
func (x *Collectives) IAllGatherRing(addr, lines int) *Request {
	return x.issue(protoIAllGatherRing, 0, addr, lines, nil)
}

var protoIAllGatherRing = &protocol{"IAllGatherRing", []stepFn{ringAllGather}}

// ringAllGather is one step — one chunk transfer — of the ring pipeline
// on the lane. Cores form a ring in id order; transfers carry a global
// 1-based sequence number tr shared by all cores, so slot rotation and
// flag sequences agree everywhere without negotiation. Per transfer a
// core
//
//  1. waits (slot reuse) until its right neighbour acked the transfer
//     that previously occupied the slot (own dnDone[0] ≥ tr−nb),
//  2. stages the outgoing chunk into the slot and bumps the right
//     neighbour's dnNotify to tr,
//  3. waits for its own dnNotify ≥ tr (left neighbour staged), and
//  4. pulls the chunk from the left neighbour's identical slot straight
//     to its final private address and acks with the left neighbour's
//     dnDone[0].
//
// Staging (2) never depends on the left neighbour, so the cycle of waits
// around the ring is broken the same way a pipelined ring of sendrecvs
// is: every core posts its "send" before blocking on its "receive".
func ringAllGather(r *Request, step int) (more bool) {
	l, x := r.lane, r.x
	p, n, me := &l.prog, x.core.N(), x.core.ID()
	left, right := (me-1+n)%n, (me+1)%n
	nb, nchunks := x.numBuffers(), x.nchunks(r.lines)
	blockBytes := r.lines * scc.CacheLine

	// Ring step t moves block me−t out and block me−1−t in, chunk by chunk.
	t, chk := step/nchunks, step%nchunks
	sendBlock := ((me-t)%n + n) % n
	recvBlock := ((me-1-t)%n + n) % n
	m := x.chunkSpan(chk, r.lines)
	off := r.addr + chk*x.cfg.BufLines*scc.CacheLine
	slot, tr := l.slotLine(step%nb), uint64(step)+1
	last := step == (n-1)*nchunks-1

	if step >= nb {
		p.WaitGE(l.dnDoneLine(0), tr-uint64(nb))
	}
	p.PutMem(slot, off+sendBlock*blockBytes, m)
	p.SetFlag(right, l.dnNotifyLine(), tr)
	p.WaitGE(l.dnNotifyLine(), tr)
	p.GetMem(left, slot, off+recvBlock*blockBytes, m)
	p.SetFlag(left, l.dnDoneLine(0), tr)
	if last {
		// Drain: the right neighbour must have consumed my last staged
		// chunks before the lane is handed to the next collective.
		p.WaitGE(l.dnDoneLine(0), tr)
	}
	return !last
}
