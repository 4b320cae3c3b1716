package algsel

import (
	"repro/internal/model"
	"repro/internal/occoll"
	"repro/internal/scc"
	"repro/internal/sim"
)

// The built-in algorithm entries: wrappers over the two existing stacks
// (two-sided internal/collective, one-sided internal/occoll) plus the
// algorithms added to prove the registry generalizes — the Rabenseifner
// reduce-scatter+allgather allreduce and the one-sided ring allgather.
//
// Candidate fan-outs cover the paper's latency sweet spot (7), the
// deep-tree end (2, 3) and a wide tree (15); candidate chunks are the
// paper's Moc = 96 and a half chunk that frees MPB room for wide trees
// or extra lanes. The tuner filters combinations whose MPB layout does
// not fit the base configuration.
var (
	treeKs   = []int{2, 3, 7, 15}
	ocChunks = []int{48, 96}
)

// The MPB owners of the blocking-only algorithms.
var (
	rcceMPB   = []scc.Owner{scc.OwnerRCCE}
	ocbMPB    = []scc.Owner{scc.OwnerOCBcast}
	hybridMPB = []scc.Owner{scc.OwnerRCCE, scc.OwnerOCBcast}
)

// mocOf resolves a choice's chunk size for the model's Moc parameter.
func mocOf(ch Choice, bp model.BcastParams) model.BcastParams {
	if ch.ChunkLines > 0 {
		bp.Moc = ch.ChunkLines
	}
	return bp
}

// kOf resolves a choice's fan-out, defaulting to the paper's 7 for the
// model formulas (Run paths default through cfgFor instead).
func kOf(ch Choice) int {
	if ch.K > 0 {
		return ch.K
	}
	return 7
}

func init() {
	// --- Broadcast ---
	Register(Algorithm{
		Op: OpBcast, Name: "oc", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.OC(ch).Bcast(a.Root, a.Addr, a.Lines) },
		Issue: func(e *Env, ch Choice, a Args) *occoll.Request {
			return e.OC(ch).IBcast(a.Root, a.Addr, a.Lines)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.OCLaneBcastLatency(mocOf(ch, model.BcastParamsFor(t, p, kOf(ch))), lines, kOf(ch))
		},
		Ks: treeKs, Chunks: ocChunks,
	})
	Register(Algorithm{
		// The paper-faithful standalone OC-Bcast (its own flag layout,
		// the Core.Broadcast compat default). Timing-wise it matches
		// "oc", so it registers no model — auto prefers the lane-based
		// twin, which also has a non-blocking form.
		Op: OpBcast, Name: "ocbcast", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.Bcaster(ch).Bcast(a.Root, a.Addr, a.Lines) },
		MPB: ocbMPB,
	})
	Register(Algorithm{
		Op: OpBcast, Name: "binomial",
		Run: func(e *Env, ch Choice, a Args) { e.Comm.BcastBinomial(a.Root, a.Addr, a.Lines) },
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.BinomialLatency(model.ReduceParamsFor(t, p, 2), lines)
		},
		MPB: rcceMPB,
	})
	Register(Algorithm{
		Op: OpBcast, Name: "sag",
		Run: func(e *Env, ch Choice, a Args) { e.Comm.BcastScatterAllgather(a.Root, a.Addr, a.Lines) },
		MPB: rcceMPB,
	})
	Register(Algorithm{
		Op: OpBcast, Name: "sag1s", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.Comm.BcastScatterAllgatherOneSided(a.Root, a.Addr, a.Lines) },
		MPB: rcceMPB,
	})
	Register(Algorithm{
		Op: OpBcast, Name: "naive",
		Run: func(e *Env, ch Choice, a Args) { e.Comm.BcastNaive(a.Root, a.Addr, a.Lines) },
		MPB: rcceMPB,
	})

	// --- Reduce ---
	Register(Algorithm{
		Op: OpReduce, Name: "oc", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.OC(ch).Reduce(a.Root, a.Addr, a.Lines, a.Reduce) },
		Issue: func(e *Env, ch Choice, a Args) *occoll.Request {
			return e.OC(ch).IReduce(a.Root, a.Addr, a.Lines, a.Reduce)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.OCReduceLatency(mocOf(ch, model.ReduceParamsFor(t, p, kOf(ch))), lines, kOf(ch))
		},
		Ks: treeKs, Chunks: ocChunks,
	})
	Register(Algorithm{
		Op: OpReduce, Name: "twosided",
		Run: func(e *Env, ch Choice, a Args) {
			e.Comm.Reduce(a.Root, a.Addr, a.Scratch, a.Lines, a.Reduce)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.BinomialReduceLatency(model.ReduceParamsFor(t, p, 2), lines)
		},
		MPB: rcceMPB,
	})

	// --- AllReduce ---
	Register(Algorithm{
		Op: OpAllReduce, Name: "oc", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.OC(ch).AllReduce(a.Addr, a.Lines, a.Reduce) },
		Issue: func(e *Env, ch Choice, a Args) *occoll.Request {
			return e.OC(ch).IAllReduce(a.Addr, a.Lines, a.Reduce)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.OCAllReduceLatency(mocOf(ch, model.ReduceParamsFor(t, p, kOf(ch))), lines, kOf(ch))
		},
		Ks: treeKs, Chunks: ocChunks,
	})
	Register(Algorithm{
		Op: OpAllReduce, Name: "twosided",
		Run: func(e *Env, ch Choice, a Args) {
			e.Comm.AllReduce(a.Addr, a.Scratch, a.Lines, a.Reduce)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.TwoSidedAllReduceLatency(model.ReduceParamsFor(t, p, 2), lines)
		},
		MPB: rcceMPB,
	})
	Register(Algorithm{
		// The §7 composition: two-sided binomial reduce, OC-Bcast of the
		// result (the public AllReduce's compat default).
		Op: OpAllReduce, Name: "hybrid",
		Run: func(e *Env, ch Choice, a Args) {
			e.Comm.Reduce(0, a.Addr, a.Scratch, a.Lines, a.Reduce)
			e.Bcaster(ch).Bcast(0, a.Addr, a.Lines)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.HybridAllReduceLatency(
				model.ReduceParamsFor(t, p, 2),
				mocOf(ch, model.BcastParamsFor(t, p, kOf(ch))), lines, kOf(ch))
		},
		Ks: treeKs, Chunks: ocChunks,
		MPB: hybridMPB,
	})
	Register(Algorithm{
		Op: OpAllReduce, Name: "rabenseifner",
		Run: func(e *Env, ch Choice, a Args) {
			e.Comm.AllReduceRabenseifner(a.Addr, a.Scratch, a.Lines, a.Reduce)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.RabenseifnerLatency(model.ReduceParamsFor(t, p, 2), lines)
		},
		MPB: rcceMPB,
	})

	// --- Scatter / Gather --- (no closed forms yet: named overrides
	// only; contention-aware models are a ROADMAP open item)
	Register(Algorithm{
		Op: OpScatter, Name: "oc", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.OC(ch).Scatter(a.Root, a.Addr, a.Lines) },
		Issue: func(e *Env, ch Choice, a Args) *occoll.Request {
			return e.OC(ch).IScatter(a.Root, a.Addr, a.Lines)
		},
		Ks: treeKs, Chunks: ocChunks,
	})
	Register(Algorithm{
		Op: OpScatter, Name: "twosided",
		Run: func(e *Env, ch Choice, a Args) { e.Comm.Scatter(a.Root, a.Addr, a.Lines) },
		MPB: rcceMPB,
	})
	Register(Algorithm{
		Op: OpGather, Name: "oc", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.OC(ch).Gather(a.Root, a.Addr, a.Lines) },
		Issue: func(e *Env, ch Choice, a Args) *occoll.Request {
			return e.OC(ch).IGather(a.Root, a.Addr, a.Lines)
		},
		Ks: treeKs, Chunks: ocChunks,
	})
	Register(Algorithm{
		Op: OpGather, Name: "twosided",
		Run: func(e *Env, ch Choice, a Args) { e.Comm.Gather(a.Root, a.Addr, a.Lines) },
		MPB: rcceMPB,
	})

	// --- AllGather ---
	Register(Algorithm{
		Op: OpAllGather, Name: "oc", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.OC(ch).AllGather(a.Addr, a.Lines) },
		Issue: func(e *Env, ch Choice, a Args) *occoll.Request {
			return e.OC(ch).IAllGather(a.Addr, a.Lines)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.OCTreeAllGatherLatency(mocOf(ch, model.BcastParamsFor(t, p, kOf(ch))), lines, kOf(ch))
		},
		Ks: treeKs, Chunks: ocChunks,
	})
	Register(Algorithm{
		Op: OpAllGather, Name: "ring", OneSided: true,
		Run: func(e *Env, ch Choice, a Args) { e.OC(ch).AllGatherRing(a.Addr, a.Lines) },
		Issue: func(e *Env, ch Choice, a Args) *occoll.Request {
			return e.OC(ch).IAllGatherRing(a.Addr, a.Lines)
		},
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.OCRingAllGatherLatency(mocOf(ch, model.RingParamsFor(t, p)), lines)
		},
		Chunks: ocChunks,
	})
	Register(Algorithm{
		Op: OpAllGather, Name: "twosided",
		Run: func(e *Env, ch Choice, a Args) { e.Comm.AllGather(a.Addr, a.Lines) },
		Model: func(m model.Model, t scc.Topology, p, lines int, ch Choice) sim.Duration {
			return m.TwoSidedRingAllGatherLatency(model.RingParamsFor(t, p), lines)
		},
		MPB: rcceMPB,
	})
}
