package ocbcast

import "repro/internal/algsel"

// Algorithm selection. Every collective method of Core is dispatched by
// the core's stack (algsel.Env), which resolves its implementation
// through the algorithm registry (internal/algsel). The registry
// wraps both stacks — the two-sided RCCE baselines and the one-sided OC
// family — plus the algorithms that exist only through the registry
// (the Rabenseifner reduce-scatter+allgather allreduce, the one-sided
// ring allgather). Options.Algorithm picks the resolution mode:
//
//	""       paper-faithful defaults: each method runs exactly the stack
//	         its name promises (goldens stay byte-identical)
//	"auto"   model-driven: System.Tune()'s decision table picks the
//	         predicted-fastest algorithm + fan-out + chunk per call, per
//	         message size, for the chip's topology
//	name     force one registered algorithm (e.g. "rabenseifner",
//	         "ring", "twosided", "oc") wherever the operation registers
//	         it; other operations keep their defaults
//
// The explicitly one-sided methods (ReduceOC, IAllGatherOC, ...) promise
// MPB-RMA-only semantics, so under "auto" they select within the
// one-sided family only — e.g. AllGatherOC may run the ring instead of
// the gather+broadcast tree where the model prefers it.

// PlanEntry is one row of the materialized decision table: Algorithm
// (with fan-out K and pipeline chunk, 0 = configured default) wins for
// op sizes up to MaxLines cache lines.
type PlanEntry struct {
	Op          string
	MaxLines    int
	Algorithm   string
	K           int
	ChunkLines  int
	PredictedUs float64
}

// Tune materializes the decision table for this chip's topology and core
// count from the closed-form model and returns it, one entry per (op,
// size band), ops sorted, bands in ascending size order. With
// Options.Algorithm "auto" the table is what Run's cores consult; Tune
// is idempotent and cheap (pure arithmetic, no simulation).
func (s *System) Tune() []PlanEntry {
	if s.policy.Plan == nil {
		s.policy.Plan = algsel.TuneCached(s.chip.Cfg.Params, s.chip.Topo(), s.chip.NCores, s.occfg)
	}
	var out []PlanEntry
	for _, op := range algsel.Ops() {
		for _, b := range s.policy.Plan.Bands[op] {
			out = append(out, PlanEntry{
				Op:          string(op),
				MaxLines:    b.MaxLines,
				Algorithm:   b.Choice.Alg,
				K:           b.Choice.K,
				ChunkLines:  b.Choice.ChunkLines,
				PredictedUs: b.PredictedUs,
			})
		}
	}
	return out
}
