package algsel

import (
	"encoding/binary"

	"repro/internal/collective"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Record dispatch: the one mapping from a trace record or a serving
// batch to a collective call, shared by the public Replay and Serve and
// the harness's pooled chips. It is part of the replay and serving
// contract (the conformance suite issues it by hand): blocking records
// and batches run the generic method of the op's name — Broadcast,
// Reduce, AllReduce, Scatter, Gather, AllGather, each resolved by the
// Env's policy — and overlapped records and concurrent batches the
// non-blocking one-sided twins IBcastOC, IReduceOC, IAllReduceOC,
// IScatterOC, IGatherOC, IAllGatherOC. Reductions combine with SumInt64.

// recordArgs are the call arguments of a record or batch: the rootless
// ops take root 0, as their methods do.
func recordArgs(op Op, root, addr, scratch, lines int) Args {
	if op == OpAllReduce || op == OpAllGather {
		root = 0
	}
	return Args{Root: root, Addr: addr, Scratch: scratch, Lines: lines, Reduce: collective.SumInt64}
}

// Replayer is an Env as the trace replayer's runner (workload.Runner).
type Replayer struct{ E *Env }

// Compute charges local work on the simulated core.
func (r Replayer) Compute(us float64) { r.E.Core().Compute(sim.Micros(us)) }

// Barrier joins the chip-wide barrier.
func (r Replayer) Barrier() { r.E.Port.Barrier() }

// NowUs reports the core's virtual clock in microseconds.
func (r Replayer) NowUs() float64 { return r.E.Core().Now().Microseconds() }

// Run executes one blocking record.
func (r Replayer) Run(rec workload.Record, addr, scratch int) {
	op := Op(rec.Op)
	r.E.Run(op, Generic, recordArgs(op, rec.Root, addr, scratch, rec.Lines))
}

// Issue starts one overlapped record.
func (r Replayer) Issue(rec workload.Record, addr, scratch int) workload.Pending {
	op := Op(rec.Op)
	return r.E.Issue(op, recordArgs(op, rec.Root, addr, scratch, rec.Lines))
}

// Server is an Env as the serving scheduler's runner (serve.Runner);
// Ctrl is the layout's control line, where SyncMaxUs stages the clock.
type Server struct {
	E    *Env
	Ctrl int
}

// ID reports the core's chip-wide rank.
func (s Server) ID() int { return s.E.Core().ID() }

// NowUs reports the core's virtual clock in microseconds.
func (s Server) NowUs() float64 { return s.E.Core().Now().Microseconds() }

// Compute charges local work on the simulated core.
func (s Server) Compute(us float64) { s.E.Core().Compute(sim.Micros(us)) }

// SyncMaxUs agrees on the round epoch: every core stages its clock in
// picoseconds as an int64 in its control line and a 1-line MaxInt64
// AllReduceOC leaves the chip-wide maximum everywhere — a real
// control-plane collective, paid for in simulated time. Staging uses the
// raw private store/load (no time charge); bytes 8..31 stay zero so the
// line's other int64 lanes never affect the max. The division by 1e6 is
// exact common knowledge, the same bits on every core.
func (s Server) SyncMaxUs() float64 {
	var buf [scc.CacheLine]byte
	c := s.E.Core()
	binary.LittleEndian.PutUint64(buf[:8], uint64(int64(c.Now())))
	priv := c.Chip().Private(c.ID())
	priv.Write(s.Ctrl, buf[:])
	s.E.Run(OpAllReduce, OneSided, Args{Addr: s.Ctrl, Lines: 1, Reduce: collective.MaxInt64})
	priv.Read(buf[:8], s.Ctrl, 8)
	return float64(int64(binary.LittleEndian.Uint64(buf[:8]))) / 1e6
}

// Run executes one blocking batch between two barriers.
func (s Server) Run(op string, root, addr, scratch, lines int) {
	s.E.Port.Barrier()
	s.E.Run(Op(op), Generic, recordArgs(Op(op), root, addr, scratch, lines))
	s.E.Port.Barrier()
}

// Issue starts one non-blocking batch.
func (s Server) Issue(op string, root, addr, lines int) serve.Pending {
	return s.E.Issue(Op(op), recordArgs(Op(op), root, addr, 0, lines))
}
