// Package ocbcast is a Go reproduction of "High-Performance RMA-Based
// Broadcast on the Intel SCC" (Petrović, Shahmirzadi, Ropars, Schiper —
// SPAA 2012). It provides a cycle-accurate-style discrete-event model of
// the Intel Single-Chip Cloud Computer — 48 cores by default, 2D-mesh
// NoC, per-core Message Passing Buffers with RMA put/get; the mesh
// dimensions are configuration (Options.MeshWidth/MeshHeight), so chips
// of hundreds of cores simulate with the same code — and, on top of it,
// two complete collective families:
//
//   - the one-sided family: OC-Bcast (the paper's pipelined k-ary tree
//     broadcast over one-sided RMA) and its §7 extensions ReduceOC,
//     AllReduceOC, ScatterOC, GatherOC and AllGatherOC, which pipeline
//     chunks through the MPBs with one-sided gets and combine reduction
//     chunks directly in the MPBs;
//   - the two-sided family: the RCCE_comm baselines the paper evaluated
//     against (binomial tree and scatter-allgather broadcast over
//     two-sided send/receive) plus Reduce, AllReduce, Gather, Scatter
//     and AllGather on the same synchronous substrate.
//
// The basic usage pattern is SPMD, mirroring programming the real SCC:
//
//	sys := ocbcast.New(ocbcast.Options{})
//	sys.WritePrivate(0, 0, payload)       // stage data on core 0
//	sys.Run(func(c *ocbcast.Core) {
//	    c.Broadcast(0, 0, lines)          // all cores call collectives
//	})
//	data := sys.ReadPrivate(47, 0, len(payload))
//
// Virtual time is fully deterministic; c.Now() timestamps taken on
// different cores are directly comparable, like the SCC's global
// counters.
package ocbcast

import (
	"errors"
	"fmt"

	"repro/internal/algsel"
	"repro/internal/alloc"
	occore "repro/internal/core"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/occoll"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CacheLineBytes is the SCC's transfer granularity (32 bytes).
const CacheLineBytes = scc.CacheLine

// PrivateMemoryBytes is the size of each core's private off-chip memory:
// WritePrivate/ReadPrivate, the per-core accessors and every collective
// address private memory from 0 up to it, and an access that reaches past
// it panics naming the core, the address and this limit (Replay and Serve
// return an error for a layout that would). 1 GiB is of the order of a
// core's share of the real chip's DRAM; it is address space, not host
// memory — pages are only allocated when first written.
const PrivateMemoryBytes = mem.PrivateBytes

// MaxCores is the real SCC's core count — the capacity of the default
// 6×4 topology. Larger meshes (MeshWidth × MeshHeight) raise the limit
// accordingly.
const MaxCores = scc.NumCores

// Options configure a simulated chip.
type Options struct {
	// MeshWidth and MeshHeight select the chip geometry: a grid of
	// SCC-style tiles (two cores, 16 KB of MPB each) with memory
	// controllers placed as the SCC places them. Both zero means the
	// paper-faithful 6×4 mesh; setting only one panics. The simulator,
	// routing, collectives and model all scale with the mesh, so e.g.
	// MeshWidth: 16, MeshHeight: 12 simulates a 384-core chip.
	MeshWidth, MeshHeight int
	// Cores is the number of simulated cores, 1..MeshWidth×MeshHeight×2.
	// 0 means all cores of the mesh (48 on the default).
	Cores int
	// K is OC-Bcast's propagation-tree fan-out. 0 means the paper's 7.
	K int
	// ChunkLines is OC-Bcast's chunk size Moc. 0 means the paper's 96.
	ChunkLines int
	// Channels is the number of independent MPB lanes for the one-sided
	// collective family — the bound on how many non-blocking collectives
	// (IBcastOC, IAllReduceOC, ...) can be in flight per core at once.
	// 0 or 1 means one lane (the classic layout). Each extra lane costs
	// numBuffers·ChunkLines + 2K+2 MPB lines, so more than one channel
	// usually requires a smaller ChunkLines than the paper's 96.
	Channels int
	// Algorithm selects how the collective methods resolve their
	// implementation through the algorithm registry: "" (default) runs
	// each method's paper-faithful stack, "auto" consults the
	// model-driven decision table (see System.Tune), and a registered
	// name (e.g. "rabenseifner", "ring", "twosided") forces that
	// algorithm wherever the operation registers it. See autotune.go.
	Algorithm string
	// DisableDoubleBuffer turns off the §4.2 double buffering.
	DisableDoubleBuffer bool
	// DisableContention turns off the MPB-port contention model,
	// yielding the paper's contention-free analytic timing (§3.1).
	DisableContention bool
	// DetailedNoC enables per-link packet accounting on the mesh.
	DetailedNoC bool
	// Trace records a full observability timeline of the run — spans for
	// every RMA op and collective, per-core time attribution, resource
	// utilization — retrievable via System.Timeline after Run. Tracing
	// never changes simulated timings; disabled (the default) it costs
	// one nil check per instrumentation point.
	Trace bool
	// Params overrides the Table 1 timing parameters when non-nil.
	Params *scc.Params
}

// System is a simulated SCC chip plus collective-operation state.
type System struct {
	chip   *rma.Chip
	occfg  occore.Config
	lay    *scc.Layout   // occfg's MPB layout, shared by every core
	policy algsel.Policy // Options.Algorithm and, under "auto", its plan
	obs    *obs.Recorder // non-nil iff Options.Trace
	ran    bool          // the single Run is spent
}

// errAlreadyRan is what a second Run, Replay or Serve on one System
// reports, instead of the engine-internal double-Run panic.
var errAlreadyRan = errors.New("ocbcast: System already ran (a System supports a single Run)")

// preflight reports why a Run-consuming entry point whose signature
// promises an error cannot start: the System's single Run is spent, or
// — when the call will use the one-sided family (needOC) — the
// configured lanes leave occoll's layout no MPB room, which Run itself
// only discovers as a panic on the first one-sided call.
func (s *System) preflight(needOC bool) error {
	if s.ran {
		return errAlreadyRan
	}
	if needOC {
		if err := s.lay.LaneErr; err != nil {
			return fmt.Errorf("ocbcast: one-sided collectives unavailable: %w", err)
		}
	}
	return nil
}

// fitsPrivate reports why a replay or serving layout of the given
// per-core footprint cannot run: it reaches past private memory, which
// the run itself would only discover as a panic on the first far access.
func fitsPrivate(what string, bytes int) error {
	if bytes > PrivateMemoryBytes {
		return fmt.Errorf("ocbcast: %s needs %d bytes of private memory per core, a core has %d", what, bytes, PrivateMemoryBytes)
	}
	return nil
}

// New builds a simulated chip. It panics on invalid options (consistent
// with misconfiguration being a programming error).
func New(opts Options) *System {
	cfg := scc.DefaultConfig()
	if (opts.MeshWidth == 0) != (opts.MeshHeight == 0) {
		panic(fmt.Sprintf("ocbcast: mesh %dx%d: set both MeshWidth and MeshHeight (or neither for the 6x4 default)",
			opts.MeshWidth, opts.MeshHeight))
	}
	if opts.MeshWidth != 0 {
		cfg.Topo = scc.Mesh(opts.MeshWidth, opts.MeshHeight)
	}
	if opts.Params != nil {
		cfg.Params = *opts.Params
	}
	if opts.DisableContention {
		cfg.Contention.Enabled = false
	}
	if opts.DetailedNoC {
		cfg.NoC = scc.NoCDetailed
	}
	n := opts.Cores
	if n == 0 {
		n = cfg.Topo.NumCores()
	}
	occfg := occore.DefaultConfig()
	if opts.K != 0 {
		occfg.K = opts.K
	}
	if opts.ChunkLines != 0 {
		occfg.BufLines = opts.ChunkLines
	}
	occfg.DoubleBuffer = !opts.DisableDoubleBuffer
	occfg.Channels = opts.Channels
	lay, err := occfg.Layout()
	if err != nil {
		panic(err)
	}
	if cfg.Topo.MPBLines < lay.Top() {
		panic(fmt.Sprintf("ocbcast: MPB share of %d lines is smaller than the %d-line protocol layout", cfg.Topo.MPBLines, lay.Top()))
	}
	if opts.Algorithm != "" && opts.Algorithm != "auto" && !algsel.Known(opts.Algorithm) {
		panic(fmt.Sprintf("ocbcast: unknown algorithm %q (use \"auto\" or a registered name)", opts.Algorithm))
	}
	s := &System{chip: rma.NewChipN(cfg, n), occfg: occfg, lay: lay, policy: algsel.Policy{Name: opts.Algorithm}}
	if opts.Trace {
		s.obs = obs.NewRecorder()
		s.chip.SetObserver(s.obs)
	}
	if opts.Algorithm == "auto" {
		s.Tune() // materialize the decision table the cores will consult
	}
	return s
}

// Timeline returns the run's observability record — the event stream,
// per-core time attribution, and end-of-run resource utilization — or
// nil when the System was built without Options.Trace. Call it after
// Run; see the returned Timeline's Attribution, WritePerfetto and
// WriteSummary methods.
func (s *System) Timeline() *obs.Timeline {
	if s.obs == nil {
		return nil
	}
	return obs.Capture(s.obs, s.chip.NCores, s.chip.ResourceUsage())
}

// N reports the number of simulated cores.
func (s *System) N() int { return s.chip.NCores }

// Mesh reports the chip's grid dimensions in tiles (6×4 by default).
func (s *System) Mesh() (w, h int) {
	t := s.chip.Topo()
	return t.W, t.H
}

// WritePrivate stores bytes into core `core`'s private off-chip memory at
// byte address addr, before or after Run. The range must lie within
// PrivateMemoryBytes; a core outside the chip panics.
func (s *System) WritePrivate(core, addr int, data []byte) {
	checkCore("WritePrivate", core, s.N())
	s.chip.Private(core).Write(addr, data)
}

// ReadPrivate copies n bytes from core `core`'s private memory at addr.
// A core outside the chip or a negative n panics.
func (s *System) ReadPrivate(core, addr, n int) []byte {
	checkCore("ReadPrivate", core, s.N())
	checkLen("ReadPrivate", n)
	out := make([]byte, n)
	s.chip.Private(core).Read(out, addr, n)
	return out
}

// Counters returns core `core`'s data-movement counters; a core outside
// the chip panics.
func (s *System) Counters(core int) trace.CoreCounters {
	checkCore("Counters", core, s.N())
	return s.chip.Counter[core]
}

// checkCore panics at the call site of fn when core is not a core of
// the n-core chip.
func checkCore(fn string, core, n int) {
	if core < 0 || core >= n {
		panic(fmt.Sprintf("ocbcast: %s: core %d outside the %d-core chip", fn, core, n))
	}
}

// checkLen panics at the call site of accessor fn on a negative length.
func checkLen(fn string, n int) {
	if n < 0 {
		panic(fmt.Sprintf("ocbcast: %s: negative length %d", fn, n))
	}
}

// Run executes body on every core concurrently in deterministic virtual
// time. A System supports a single Run; build a new System per
// simulation (a second Run, Replay or Serve panics or errors with
// "System already ran").
func (s *System) Run(body func(c *Core)) {
	if s.ran {
		panic(errAlreadyRan.Error())
	}
	s.ran = true
	// Every core's handle and its stack live in one slice for the run, so
	// starting n cores allocates once, not once per core and layer, and
	// what the stacks grow comes from one store.
	cores := alloc.Slice[coreState](s.chip.NCores)
	var sh algsel.Shared
	sh.Init(s.chip.NCores)
	s.chip.Run(func(rc *rma.Core) {
		st := &cores[rc.ID()]
		st.env.Init(rc, s.occfg, s.lay, s.policy, &sh)
		st.handle = Core{rma: rc, env: &st.env}
		body(&st.handle)
		st.env.Finish()
	})
}

// Core is the per-core handle available inside Run: every collective
// dispatches through the core's stack (algsel.Env).
type Core struct {
	rma *rma.Core
	env *algsel.Env
}

// coreState is one core's slot of a Run: the public handle and the stack
// it points at.
type coreState struct {
	handle Core
	env    algsel.Env
}

// The MPB owners of the calls that are not collectives.
var (
	rcceMPB = []scc.Owner{scc.OwnerRCCE}
	mpmdMPB = []scc.Owner{scc.OwnerOCBcast, scc.OwnerMPMD}
)

// exclusive panics when this core starts call (of op, when it is a
// collective), which runs the protocols owners over their MPB regions,
// while a non-blocking request it issued is incomplete (not yet
// completed by Wait or a true Test) on a lane that shares lines with
// those regions: the call would restage or reflag lines the request's
// peers still use.
func (c *Core) exclusive(op string, call string, owners []scc.Owner) {
	x, err := c.env.Collectives()
	if err != nil {
		return
	}
	for _, r := range x.Requests() {
		if r.Completed() {
			continue
		}
		if shared := c.env.Layout().Shared(r.Lane(), owners); shared != "" {
			if op != "" {
				call = fmt.Sprintf("%s (%s)", op, call)
			}
			panic(fmt.Sprintf("ocbcast: core %d: %s while its %s request on lane %d is incomplete: both use MPB lines %s; complete the request with Wait or a true Test first",
				c.ID(), call, r.Op(), r.Lane(), shared))
		}
	}
}

// run resolves one blocking collective of op called through method m
// and executes it.
func (c *Core) run(op string, m algsel.Method, a algsel.Args) {
	alg, ch := c.env.Resolve(op, m, a.Lines)
	c.exec(alg, ch, a)
}

// exec is the one collective dispatch: it checks algorithm alg against
// the core's incomplete requests and runs it at choice ch.
func (c *Core) exec(alg *algsel.Algorithm, ch algsel.Choice, a algsel.Args) {
	if alg.Issue == nil {
		c.exclusive(alg.Op, alg.Name, alg.MPB)
	}
	c.env.Exec(alg, ch, a)
}

// bcastWith runs the registered broadcast algorithm name whatever
// Options.Algorithm says — the Broadcast* baselines.
func (c *Core) bcastWith(name string, root, addr, lines int) {
	alg, _ := algsel.Lookup(workload.OpBcast, name)
	c.exec(alg, algsel.Choice{Alg: name}, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// occ returns the one-sided collective state, panicking with the layout
// error when the configured (K, ChunkLines) leave no MPB room for
// occoll's flag block — OC-Bcast alone admits larger fan-outs than the
// full one-sided family does.
func (c *Core) occ() *occoll.Collectives {
	x, err := c.env.Collectives()
	if err != nil {
		panic(fmt.Sprintf("ocbcast: one-sided collectives unavailable: %v", err))
	}
	return x
}

// ID reports the core id (0..N-1); N reports the core count.
func (c *Core) ID() int { return c.rma.ID() }

// N reports the number of cores.
func (c *Core) N() int { return c.rma.N() }

// Now reports the core's virtual clock.
func (c *Core) Now() sim.Time { return c.rma.Now() }

// NowMicros reports the virtual clock in microseconds.
func (c *Core) NowMicros() float64 { return c.rma.Now().Microseconds() }

// Compute advances the core's clock by us microseconds of local work.
// us must be finite and within [0, 1e9] (the cap traces also enforce);
// anything else panics here rather than overflowing the virtual clock.
func (c *Core) Compute(us float64) {
	if !(us >= 0 && us <= workload.MaxGapUs) { // also rejects NaN
		panic(fmt.Sprintf("ocbcast: Compute(%v): microseconds must be finite and in [0, %g]", us, workload.MaxGapUs))
	}
	c.rma.Compute(sim.Micros(us))
}

// Broadcast runs OC-Bcast: `lines` cache lines from root's private memory
// at byte address addr to the same address on every core. All cores must
// call it with matching arguments. Under Options.Algorithm "auto" (or a
// named override) the registry may select a different broadcast
// algorithm — see autotune.go.
func (c *Core) Broadcast(root, addr, lines int) {
	c.run(workload.OpBcast, algsel.Generic, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// BroadcastBinomial runs the RCCE_comm binomial-tree baseline.
func (c *Core) BroadcastBinomial(root, addr, lines int) { c.bcastWith("binomial", root, addr, lines) }

// BroadcastScatterAllgather runs the RCCE_comm scatter-allgather baseline.
func (c *Core) BroadcastScatterAllgather(root, addr, lines int) {
	c.bcastWith("sag", root, addr, lines)
}

// BroadcastScatterAllgatherOneSided runs the §5.4 one-sided adaptation of
// scatter-allgather (overlapped ring exchanges).
func (c *Core) BroadcastScatterAllgatherOneSided(root, addr, lines int) {
	c.bcastWith("sag1s", root, addr, lines)
}

// Send/Recv are RCCE-style two-sided point-to-point operations. A peer
// outside the chip panics.
func (c *Core) Send(dst, addr, lines int) {
	checkCore("Send", dst, c.N())
	c.exclusive("", "Send", rcceMPB)
	c.env.Port.Send(dst, addr, lines)
}

// Recv receives `lines` cache lines from src into private memory at addr.
func (c *Core) Recv(src, addr, lines int) {
	checkCore("Recv", src, c.N())
	c.exclusive("", "Recv", rcceMPB)
	c.env.Port.Recv(src, addr, lines)
}

// Barrier synchronizes all cores. Its lines are RCCE's barrier flags,
// which no lane shares, so it is legal while requests are incomplete.
func (c *Core) Barrier() { c.env.Port.Barrier() }

// Announce starts an MPMD broadcast from this core: receivers need not
// know the arguments — the activation tree delivers a descriptor and an
// inter-core interrupt to every core (the paper's §7 ongoing work).
func (c *Core) Announce(addr, lines int) {
	c.exclusive("", "Announce", mpmdMPB)
	c.env.BC.Announce(addr, lines)
}

// HandleAnnounce blocks until an MPMD broadcast activates this core,
// participates, and returns the delivered (root, addr, lines) — what a
// many-core OS service loop would call.
func (c *Core) HandleAnnounce() (root, addr, lines int) {
	c.exclusive("", "HandleAnnounce", mpmdMPB)
	return c.env.BC.HandleAnnounce()
}

// WriteOwnPrivate stores bytes into this core's private memory at addr
// without charging communication time (data preparation; charge compute
// separately if the store pass matters).
func (c *Core) WriteOwnPrivate(addr int, data []byte) {
	c.rma.Chip().Private(c.ID()).Write(addr, data)
}

// ReadOwnPrivate copies n bytes from this core's private memory at addr;
// a negative n panics.
func (c *Core) ReadOwnPrivate(addr, n int) []byte {
	checkLen("ReadOwnPrivate", n)
	out := make([]byte, n)
	c.rma.Chip().Private(c.ID()).Read(out, addr, n)
	return out
}

// The one-sided RMA primitives underneath everything (paper §2.2): put
// and get move cache lines between private memory and MPBs. Line indices
// address the target MPB (0..255); addresses are 32-byte-aligned private
// memory byte offsets. A peer core outside the chip panics.

// PutToMPB copies `lines` cache lines from this core's private memory at
// srcAddr into core dst's MPB starting at line dstLine (RCCE put).
func (c *Core) PutToMPB(dst, dstLine, srcAddr, lines int) {
	checkCore("PutToMPB", dst, c.N())
	c.rma.PutMemToMPB(dst, dstLine, srcAddr, lines)
}

// GetFromMPB copies `lines` cache lines from core src's MPB starting at
// srcLine into this core's private memory at dstAddr (RCCE get).
func (c *Core) GetFromMPB(src, srcLine, dstAddr, lines int) {
	checkCore("GetFromMPB", src, c.N())
	c.rma.GetMPBToMem(src, srcLine, dstAddr, lines)
}

// GetToOwnMPB copies `lines` cache lines from core src's MPB into this
// core's own MPB — the hop OC-Bcast pipelines down its tree.
func (c *Core) GetToOwnMPB(src, srcLine, dstLine, lines int) {
	checkCore("GetToOwnMPB", src, c.N())
	c.rma.GetMPBToMPB(src, srcLine, dstLine, lines)
}

// The extension collectives (§7 future work) live in collectives.go, in
// two families: Reduce/AllReduce/Gather/Scatter/AllGather on the
// two-sided RCCE substrate, and ReduceOC/AllReduceOC/GatherOC/ScatterOC/
// AllGatherOC on the one-sided pipelined substrate (internal/occoll).

// Model returns the paper's analytical model for the given parameters
// (Table 1 when p is nil).
func Model(p *scc.Params) model.Model {
	if p == nil {
		return model.New(scc.Table1())
	}
	return model.New(*p)
}
