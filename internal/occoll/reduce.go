package occoll

import (
	"repro/internal/rma"
	"repro/internal/scc"
)

// Reduce combines every core's `lines` cache lines at addr with op; the
// result lands at addr on the root. Unlike the two-sided binomial
// reduction, non-root cores' buffers are left untouched (no scratch area
// is needed): each core stages its contribution in its own MPB, and
// parents fold children's chunks into their MPB-resident accumulator with
// one-sided combining gets, pipelined chunk by chunk up the k-ary tree.
func (x *Collectives) Reduce(root, addr, lines int, op ReduceOp) {
	x.IReduce(root, addr, lines, op).Wait()
}

// IReduce is the non-blocking Reduce: it issues the reduction and returns
// a Request to Test or Wait on while the core computes.
func (x *Collectives) IReduce(root, addr, lines int, op ReduceOp) *Request {
	if op == nil {
		panic("occoll: nil reduce op")
	}
	return x.issue(protoIReduce, root, addr, lines, op)
}

var protoIReduce = &protocol{"IReduce", []stepFn{reduceUp}}

// AllReduce is OC-Reduce fused with an OC-Bcast of the result: both
// halves share one propagation tree and the same double-buffered MPB
// slots — the reduction's drain handshake doubles as the handoff that
// frees each slot for the broadcast pipeline. Every core ends with the
// combined result at addr.
func (x *Collectives) AllReduce(addr, lines int, op ReduceOp) {
	x.IAllReduce(addr, lines, op).Wait()
}

// IAllReduce is the non-blocking AllReduce: it issues the fused
// reduce+broadcast and returns a Request to Test or Wait on.
func (x *Collectives) IAllReduce(addr, lines int, op ReduceOp) *Request {
	if op == nil {
		panic("occoll: nil reduce op")
	}
	return x.issue(protoIAllReduce, 0, addr, lines, op)
}

var protoIAllReduce = &protocol{"IAllReduce", []stepFn{reduceUp, bcastDown}}

// reduceUp is one step — chunk ch — of the reduction pipeline toward the
// root. Per chunk, a node stages its own contribution into its MPB slot,
// folds in each child's staged chunk with rma.GetMPBCombine (waiting on
// the child's upReady flag, acking with the child's upConsumed flag),
// then flags its own parent. The root instead drains the fully combined
// chunk to private memory. Flags carry 1-based chunk sequence numbers;
// slots are reused double-buffered like OC-Bcast (§4.2).
func reduceUp(r *Request, ch int) (more bool) {
	l, t := r.lane, &r.tree
	x, p := l.x, &l.prog
	me, nb := x.core.ID(), x.numBuffers()
	m := x.chunkSpan(ch, r.lines)
	off := r.addr + ch*x.cfg.BufLines*scc.CacheLine
	buf, seq := l.bufLine(ch), uint64(ch)+1
	last := ch == x.nchunks(r.lines)-1

	// Reuse my accumulator slot only after my parent consumed the chunk
	// that previously occupied it.
	if t.Rank != 0 && ch >= nb {
		p.WaitGE(l.upConsumedLine(), seq-uint64(nb))
	}
	// Stage my own contribution as the slot's accumulator.
	p.PutMem(buf, off, m)
	// Fold in each child's chunk, in child order (deterministic and, for
	// the integer ops, exactly associative — results are byte-identical
	// to the two-sided composition).
	for i, child := range t.Children {
		p.WaitGE(l.upReadyLine(i), seq)
		p.Combine(child, buf, m)
		p.Compute(rma.CombineCost(m))
		p.SetFlag(child, l.upConsumedLine(), seq)
	}
	if t.Rank == 0 {
		// Root: land the fully combined chunk in private memory.
		p.GetMem(me, buf, off, m)
	} else {
		p.SetFlag(t.Parent, l.upReadyLine(t.ChildIdx), seq)
		if last {
			// Drain: my parent must have consumed my last staged chunks
			// before I return (or hand the slots to AllReduce's
			// broadcast half).
			p.WaitGE(l.upConsumedLine(), seq)
		}
	}
	return !last
}
