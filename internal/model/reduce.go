package model

import (
	"repro/internal/core"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
)

// Closed-form latency predictions for the one-sided reduction collectives
// of internal/occoll, in the style of §5's broadcast formulas: the
// reduction pipeline is OC-Bcast's chunk pipeline run toward the root,
// with the per-hop MPB->MPB get replaced by a combining get (remote read
// + local accumulator read + local write-back per line) and the root
// draining each fully combined chunk to private memory.

// DefaultReduceParams parameterizes the reduction model. Unlike §5.1's
// broadcast convention (distance 1 everywhere), the defaults use the
// average router distances the rank-rotated k-ary tree actually produces
// on the 6x4 mesh — ~5 hops between tree neighbours' MPBs, 2 hops to the
// nearest memory controller — because the reduction's accuracy target
// (within 15% of simulation) is tighter than Figure 6's qualitative
// curves.
func DefaultReduceParams() BcastParams {
	return BcastParams{P: scc.NumCores, DMpb: 5, DMem: 2, Moc: 96, Mrcce: 251, Notification: true}
}

// CMpbCombine is the combining get of n lines from an MPB at distance
// dSrc into the local MPB (rma.GetMPBCombine): per line one remote read,
// one local accumulator read and one local write-back.
func (m Model) CMpbCombine(n, dSrc int) sim.Duration {
	return m.P.OMpbGet + sim.Duration(n)*(m.CMpbR(dSrc)+m.CMpbR(1)+m.CMpbW(1))
}

// occollBegin is occoll's per-operation entry cost: zeroing the core's
// 2k+2 flag lines plus a gather-release barrier over ceil(log2 P) levels
// each way.
func (m Model) occollBegin(bp BcastParams, k int) sim.Duration {
	begin := sim.Duration(2*k+2) * m.CMpbW(1)
	if bp.Notification {
		begin += sim.Duration(2*ceilLog2(bp.P)) * (m.flagSet(bp.DMpb) + m.flagPoll())
	}
	return begin
}

// reduceChunkCost is an interior node's serial work per chunk of mm
// lines: staging its own contribution into its MPB slot, then folding in
// k children (poll the child's ready flag, combining get, one compute
// pass over the data, ack the child).
func (m Model) reduceChunkCost(bp BcastParams, mm, k int) sim.Duration {
	c := m.CMemPut(mm, bp.DMem, 1)
	perChild := m.CMpbCombine(mm, bp.DMpb) + rma.CombineCost(mm)
	if bp.Notification {
		perChild += m.flagPoll() + m.flagSet(bp.DMpb)
	}
	return c + sim.Duration(k)*perChild
}

// OCReduceLatency predicts the OC-Reduce latency for a message of n
// cache lines with fan-out k. The first chunk pays the full tree depth of
// combining work (the fill); subsequent chunks drip out of the
// double-buffered pipeline at the root's per-chunk rate, the pipeline's
// bottleneck (the root additionally drains each combined chunk to
// private memory).
func (m Model) OCReduceLatency(bp BcastParams, n, k int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	depth := core.TreeDepth(bp.P, k)
	nchunks := (n + bp.Moc - 1) / bp.Moc
	span := func(ch int) int {
		s := n - ch*bp.Moc
		if s > bp.Moc {
			s = bp.Moc
		}
		return s
	}
	first := span(0)

	// Fill: the deepest leaf stages, flags its parent, and the combining
	// work ripples up `depth` levels; the root drains the result.
	lat := m.occollBegin(bp, k) + m.CMemPut(first, bp.DMem, 1)
	if bp.Notification {
		lat += m.flagSet(bp.DMpb)
	}
	perChild := m.CMpbCombine(first, bp.DMpb) + rma.CombineCost(first)
	if bp.Notification {
		perChild += m.flagPoll() + m.flagSet(bp.DMpb)
	}
	lat += sim.Duration(depth*k) * perChild
	lat += m.CMemGet(first, bp.DMpb, bp.DMem)

	// Steady state: one root-chunk step per remaining chunk.
	for ch := 1; ch < nchunks; ch++ {
		lat += m.reduceChunkCost(bp, span(ch), k) + m.CMemGet(span(ch), bp.DMpb, bp.DMem)
	}
	return lat
}

// OCAllReduceLatency predicts OC-AllReduce: OC-Reduce followed by the
// OC-Bcast chunk pipeline down the same tree (leaf-direct, so a leaf's
// per-chunk step is the parent-MPB-to-memory get).
func (m Model) OCAllReduceLatency(bp BcastParams, n, k int) sim.Duration {
	if bp.P == 1 || n <= 0 {
		return 0
	}
	lat := m.OCReduceLatency(bp, n, k)

	depth := core.TreeDepth(bp.P, k)
	nchunks := (n + bp.Moc - 1) / bp.Moc
	span := func(ch int) int {
		s := n - ch*bp.Moc
		if s > bp.Moc {
			s = bp.Moc
		}
		return s
	}
	first := span(0)

	// Broadcast fill: root restages the result, one MPB->MPB get (plus
	// notification) per level, and the final MPB->memory drain.
	lat += m.CMemPut(first, bp.DMem, 1)
	perLevelNotify := sim.Duration(0)
	if bp.Notification {
		perLevelNotify = sim.Duration(lastNotifyDepth(min(k, bp.P-1))) * m.flagSet(bp.DMpb)
		perLevelNotify += m.flagPoll()
	}
	lat += sim.Duration(depth) * (perLevelNotify + m.CMpbGet(first, bp.DMpb))
	lat += m.CMemGet(first, bp.DMpb, bp.DMem)

	// Broadcast steady state: an interior node's per-chunk step.
	for ch := 1; ch < nchunks; ch++ {
		lat += m.CMpbGet(span(ch), bp.DMpb) + m.CMemGet(span(ch), bp.DMpb, bp.DMem)
	}
	return lat
}
