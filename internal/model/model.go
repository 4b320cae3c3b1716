// Package model implements the paper's LogP-based analytical performance
// model (§3 Figure 2, §5 Figure 7): per-operation put/get cost formulas,
// broadcast latency predictors for OC-Bcast and the binomial tree, and
// peak-throughput predictors for OC-Bcast and scatter-allgather. It is
// pure arithmetic — no simulation — and regenerates Figure 6 and Table 2.
//
// The formulas' hop terms are functions of the chip geometry:
// BcastParamsFor / ReduceParamsFor derive the distance parameters from a
// scc.Topology (mean tree-neighbour and memory-controller distances), so
// the same closed forms predict latency on meshes far larger than the
// 48-core chip the paper measured (see the fig-scale experiment).
package model

import (
	"repro/internal/scc"
	"repro/internal/sim"
)

// Model evaluates the paper's cost formulas for a given parameter set.
type Model struct {
	P scc.Params
}

// New creates a model from timing parameters (typically scc.Table1()).
func New(p scc.Params) Model { return Model{P: p} }

// --- Per-line primitives (Formulas 1–6) ---

// LMpbW is Formula 1: the latency of writing one line to an MPB at
// distance d.
func (m Model) LMpbW(d int) sim.Duration { return m.P.OMpb + sim.Duration(d)*m.P.Lhop }

// CMpbW is Formula 2: the completion time of that write (incl. ack).
func (m Model) CMpbW(d int) sim.Duration { return m.P.OMpb + sim.Duration(2*d)*m.P.Lhop }

// CMpbR is Formula 3: read one line from an MPB at distance d.
func (m Model) CMpbR(d int) sim.Duration { return m.P.OMpb + sim.Duration(2*d)*m.P.Lhop }

// Formula 4, the latency of a write to off-chip memory, has no term
// here: nothing observes a private-memory write before its completion
// (Formula 5), which is all the model and the simulator charge.

// CMemW is Formula 5: the completion time of that write.
func (m Model) CMemW(d int) sim.Duration { return m.P.OMemW + sim.Duration(2*d)*m.P.Lhop }

// CMemR is Formula 6: read one line from off-chip memory at distance d.
func (m Model) CMemR(d int) sim.Duration { return m.P.OMemR + sim.Duration(2*d)*m.P.Lhop }

// --- Whole-operation formulas (7–12); sizes in cache lines ---

// CMpbPut is Formula 7: put of n lines from the local MPB to an MPB at
// distance dDst.
func (m Model) CMpbPut(n, dDst int) sim.Duration {
	return m.P.OMpbPut + sim.Duration(n)*m.CMpbR(1) + sim.Duration(n)*m.CMpbW(dDst)
}

// CMemPut is Formula 8: put of n lines from private memory (controller
// distance dSrc) to an MPB at distance dDst.
func (m Model) CMemPut(n, dSrc, dDst int) sim.Duration {
	return m.P.OMemPut + sim.Duration(n)*m.CMemR(dSrc) + sim.Duration(n)*m.CMpbW(dDst)
}

// LMpbPut is Formula 9: the put's latency (last line visible remotely).
func (m Model) LMpbPut(n, dDst int) sim.Duration {
	return m.CMpbPut(n, dDst) - (m.CMpbW(dDst) - m.LMpbW(dDst))
}

// LMemPut is Formula 10.
func (m Model) LMemPut(n, dSrc, dDst int) sim.Duration {
	return m.CMemPut(n, dSrc, dDst) - (m.CMpbW(dDst) - m.LMpbW(dDst))
}

// CMpbGet is Formula 11: get of n lines from an MPB at distance dSrc into
// the local MPB. Latency equals completion for gets.
func (m Model) CMpbGet(n, dSrc int) sim.Duration {
	return m.P.OMpbGet + sim.Duration(n)*m.CMpbR(dSrc) + sim.Duration(n)*m.CMpbW(1)
}

// CMemGet is Formula 12: get of n lines from an MPB at distance dSrc into
// private memory at controller distance dDst.
func (m Model) CMemGet(n, dSrc, dDst int) sim.Duration {
	return m.P.OMemGet + sim.Duration(n)*m.CMpbR(dSrc) + sim.Duration(n)*m.CMemW(dDst)
}
