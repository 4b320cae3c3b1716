package model

import (
	"repro/internal/rma"
	"repro/internal/sim"
)

// Closed-form latency predictions for the collective algorithms the
// registry (internal/algsel) can choose between. The broadcast and
// one-sided reduction formulas live in broadcast.go and reduce.go; this
// file adds the two-sided compositions and the reduce-scatter/ring
// family, in the same style: critical-path arithmetic over the §3
// per-operation costs. The tuner only needs these predictions to *rank*
// algorithms per (topology, message size); the fig-crossover experiment
// measures how well the ranking holds up against simulation (the
// auto-vs-best regret).

// OCLaneBcastLatency predicts occoll's lane broadcast (occoll.Bcast /
// IBcast): the OC-Bcast chunk pipeline of Formula 13 plus the lane's
// per-operation entry cost — flag zeroing and the begin barrier — which
// the standalone Broadcaster does not pay. At one cache line the entry
// cost is most of the latency, which is exactly why the tuner must see
// it to rank the lane broadcast against the binomial baseline.
func (m Model) OCLaneBcastLatency(bp BcastParams, n, k int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	return m.occollBegin(bp, k) + m.OCBcastLatency(bp, n, k)
}

// barrier is the cost of one gather-release tree barrier over the
// ceil(log2 P) levels of the RCCE port's binary barrier tree.
func (m Model) barrier(bp BcastParams) sim.Duration {
	return sim.Duration(2*ceilLog2(bp.P)) * (m.flagSet(bp.DMpb) + m.flagPoll())
}

// twoSidedXfer is one RCCE send/receive of n lines on the critical path:
// the sender stages into its own MPB (srcHot selects whether the source
// read is L1-resident), the receiver pulls to private memory, and each
// Mrcce-sized chunk pays the two-flag synchronous handshake.
func (m Model) twoSidedXfer(bp BcastParams, n int, srcHot bool) sim.Duration {
	d := m.P.OMemPut + sim.Duration(n)*m.CMpbW(1) +
		m.P.OMemGet + sim.Duration(n)*m.CMpbR(bp.DMpb) + sim.Duration(n)*m.CMemW(bp.DMem)
	if !srcHot {
		d += sim.Duration(n) * m.CMemR(bp.DMem)
	}
	if bp.Notification {
		nchunks := (n + bp.Mrcce - 1) / bp.Mrcce
		d += sim.Duration(nchunks) * (2*m.flagSet(bp.DMpb) + 2*m.flagPoll())
	}
	return d
}

// BinomialReduceLatency predicts the two-sided binomial-tree reduction
// (collective.Comm.Reduce): ceil(log2 P) levels, each a turn handshake, a
// full-message transfer and one combine pass. Every staging read is
// cache-cold: the combine writes its result with a raw private-memory
// store, which — unlike GetMPBToMem's write-allocate — does not populate
// the L1 model, so no level's source is resident.
func (m Model) BinomialReduceLatency(bp BcastParams, n int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	levels := ceilLog2(bp.P)
	perLevel := m.twoSidedXfer(bp, n, false) + rma.CombineCost(n)
	if bp.Notification {
		perLevel += m.flagSet(bp.DMpb) + m.flagPoll() // the grant/await turn
	}
	return sim.Duration(levels) * perLevel
}

// TwoSidedAllReduceLatency is the binomial Reduce followed by the
// binomial broadcast — the "twosided" allreduce variant.
func (m Model) TwoSidedAllReduceLatency(bp BcastParams, n int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	return m.BinomialReduceLatency(bp, n) + m.BinomialLatency(bp, n)
}

// HybridAllReduceLatency is the binomial Reduce followed by an OC-Bcast
// of the result — the §7 composition (the "hybrid" variant). The two
// phases run different communication graphs, so each takes its own
// parameter set: rp with the binomial exchange distances, bp with the
// k-ary propagation-tree distances.
func (m Model) HybridAllReduceLatency(rp, bp BcastParams, n, k int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	return m.BinomialReduceLatency(rp, n) + m.OCBcastLatency(bp, n, k)
}

// pof2Below reports the largest power of two ≤ p and its log2.
func pof2Below(p int) (pof2, log2 int) {
	pof2 = 1
	for pof2*2 <= p {
		pof2 *= 2
		log2++
	}
	return pof2, log2
}

// RabenseifnerLatency predicts the two-sided reduce-scatter+allgather
// allreduce (collective.Comm.AllReduceRabenseifner): a fold transfer when
// P is not a power of two, log2 P' halving exchanges with combines, log2
// P' doubling exchanges, an unfold transfer, and the inter-step barriers
// the single-channel RCCE port requires. Exchange steps move n/2^i
// lines, so the transferred volume is ~2n rather than ~2n·log2 P — the
// reason the algorithm overtakes the tree compositions at large n.
func (m Model) RabenseifnerLatency(bp BcastParams, n int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	pof2, steps := pof2Below(bp.P)
	var lat sim.Duration
	if bp.P != pof2 {
		// Fold: full-vector send into the even partner plus a combine,
		// and the mirror unfold send of the result at the end. Staging
		// reads are cold (the combine's raw store bypasses the L1 model).
		lat += m.twoSidedXfer(bp, n, false) + rma.CombineCost(n) +
			m.twoSidedXfer(bp, n, false)
	}
	if bp.Notification {
		lat += sim.Duration(2*steps+1) * m.barrier(bp)
	}
	seg := n
	for i := 0; i < steps; i++ {
		seg = (seg + 1) / 2
		// One halving exchange (send + receive of seg lines, both
		// directions partially overlapped through SendRecv) + combine,
		// and the mirror doubling exchange of the same segment size.
		lat += 2*m.twoSidedXfer(bp, seg, false) + rma.CombineCost(seg)
	}
	return lat
}

// OCRingAllGatherLatency predicts the one-sided ring allgather
// (occoll.AllGatherRing): P−1 lockstep steps, each staging one n-line
// block into the core's own MPB and pulling the neighbour's block to its
// final private address, chunked by Moc. bp.DMpb must be the mean
// ring-neighbour distance (RingParamsFor), not the tree distance.
func (m Model) OCRingAllGatherLatency(bp BcastParams, n int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	nchunks := (n + bp.Moc - 1) / bp.Moc
	span := func(ch int) int {
		s := n - ch*bp.Moc
		if s > bp.Moc {
			s = bp.Moc
		}
		return s
	}
	// Per transfer a core stages (put) and pulls (get) sequentially. The
	// staged block was received by last step's get, whose write-allocate
	// leaves it L1-resident — so the put's memory-read leg is free after
	// the first step, which stages the core's own (cold) block.
	var step sim.Duration
	for ch := 0; ch < nchunks; ch++ {
		mm := span(ch)
		step += m.P.OMemPut + sim.Duration(mm)*m.CMpbW(1) + // hot-source put
			m.CMemGet(mm, bp.DMpb, bp.DMem)
		if bp.Notification {
			step += 2*m.flagSet(bp.DMpb) + m.flagPoll()
		}
	}
	lat := m.occollBegin(bp, 1) + sim.Duration(bp.P-1)*step +
		sim.Duration(n)*m.CMemR(bp.DMem) // first step's cold source read
	return lat
}

// OCTreeAllGatherLatency predicts the tree allgather (occoll.AllGather):
// an OC-Gather of every block onto the root — whose serial bottleneck is
// the root pulling P−1 blocks chunk by chunk — followed by an OC-Bcast of
// the concatenated P·n-line result down the same tree.
func (m Model) OCTreeAllGatherLatency(bp BcastParams, n, k int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	nchunks := (n + bp.Moc - 1) / bp.Moc
	span := func(ch int) int {
		s := n - ch*bp.Moc
		if s > bp.Moc {
			s = bp.Moc
		}
		return s
	}
	// Root's serial gather work: per received block, per chunk, a poll,
	// the MPB→memory get, and the consumed ack. Child staging overlaps
	// the root's drain in the pipeline, so the root's side is the step.
	var blockCost sim.Duration
	for ch := 0; ch < nchunks; ch++ {
		mm := span(ch)
		blockCost += m.CMemGet(mm, bp.DMpb, bp.DMem)
		if bp.Notification {
			blockCost += m.flagPoll() + m.flagSet(bp.DMpb)
		}
	}
	// Fill: the deepest leaf's first chunk must ripple up `depth` levels
	// of child staging before the root's steady drain covers it.
	depth := TreeDepth(bp.P, k)
	fill := sim.Duration(depth) * m.CMemPut(span(0), bp.DMem, 1)
	lat := m.occollBegin(bp, k) + fill + sim.Duration(bp.P-1)*blockCost

	// Broadcast of the concatenated result.
	bpAll := bp
	lat += m.OCBcastLatency(bpAll, bp.P*n, k)
	return lat
}

// TwoSidedRingAllGatherLatency predicts the two-sided ring allgather
// (collective.Comm.AllGather): P−1 parity-ordered rounds with fixed
// neighbours. The parity ordering makes each round fully synchronous —
// a core's send and receive serialize (Send blocks until the partner's
// ack), so every round costs two transfers, not one. The block sent in
// round t was received in round t−1, so staging reads are L1-hot.
func (m Model) TwoSidedRingAllGatherLatency(bp BcastParams, n int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	lat := sim.Duration(n) * m.CMemR(bp.DMem) // own block, cache-cold
	return lat + sim.Duration(bp.P-1)*2*m.twoSidedXfer(bp, n, true)
}
