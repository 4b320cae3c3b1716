// Package rma assembles a simulated SCC chip and provides the one-sided
// Remote Memory Access primitives of the RCCE layer — put and get between
// MPBs and private off-chip memory — with costs charged exactly per the
// paper's LogP-based model (§3.1, Formulas 1–12), plus the MPB-port
// contention model of §3.3.
package rma

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Chip is a fully assembled simulated SCC: engine, per-core MPBs and
// private memories, cache models, optional detailed NoC, and counters.
// Per-core state is held by value in one array of slots (the MPBs,
// private memories and caches over one shared slab, see mem.Slab), so
// building a chip costs a fixed number of allocations whatever its core
// count, and what a core's traffic takes or grows — pages, payload
// buffers, tables, step programs — comes from chip-level blocks.
type Chip struct {
	Cfg     scc.Config
	Engine  *sim.Engine
	NCores  int
	topo    scc.Topology
	slots   []coreSlot
	slab    *mem.Slab
	mesh    *noc.Mesh
	Counter []trace.CoreCounters

	// runBody/runWrap let Run hand the engine one long-lived adapter
	// closure instead of allocating a fresh one per simulation.
	runBody func(core *Core)
	runWrap func(p *sim.Proc)

	// coords and memDist precompute each core's tile coordinate and
	// controller hop distance: every RMA op consults them (often several
	// times), and the div/mod chains behind Topology.CoreCoord showed up
	// as ~10% of hot-path CPU before caching.
	coords  []scc.Coord
	memDist []int

	// progs and runs are the storage the cores' step programs and
	// PutMemToMPB's run lists grow in.
	progs Progs
	runs  alloc.Arena[writeRun]

	// obs, when non-nil, receives the op-level timeline (put/get/flag
	// spans, compute spans). Nil means tracing is off.
	obs *obs.Recorder
}

// coreSlot is what a chip holds per core, by value: one array for the
// chip instead of five objects per core. (Counter stays a slice of its
// own because it is the chip's public counter table; coords and memDist
// because every op reads another core's entry and a compact table keeps
// those reads in a few cache lines.)
type coreSlot struct {
	mpb   mem.MPB
	priv  mem.Private
	cache mem.Cache
	// core is the reusable per-proc handle Run passes to its body,
	// re-pointed each Run, so a reset chip's next simulation reuses the
	// core's program and run-list buffers.
	core Core
	ipi  ipiState
}

// NewChip builds a chip with every core of the configured topology (48
// on the default 6×4 SCC).
func NewChip(cfg scc.Config) *Chip {
	return NewChipN(cfg, cfg.Topology().NumCores())
}

// NewChipN builds a chip using the first n cores of the configured
// topology (n ≤ Topology.NumCores()); smaller chips keep unit tests fast
// while exercising identical code paths.
func NewChipN(cfg scc.Config, n int) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	topo := cfg.Topology()
	if n < 1 || n > topo.NumCores() {
		panic(fmt.Sprintf("rma: core count %d out of range [1,%d]", n, topo.NumCores()))
	}
	c := &Chip{
		Cfg:     cfg,
		Engine:  sim.NewEngine(n),
		NCores:  n,
		topo:    topo,
		slots:   alloc.Slice[coreSlot](n),
		Counter: make([]trace.CoreCounters, n),
		coords:  make([]scc.Coord, n),
		memDist: make([]int, n),
	}
	slab := mem.NewSlab(n, topo.MPBLines)
	c.slab = slab
	c.progs.Init(n)
	c.runs = alloc.Arena[writeRun]{Per: alloc.Share(n), Min: 4}
	for i := range c.slots {
		s := &c.slots[i]
		s.core.run.prog.Bind(&c.progs)
		s.mpb.Init(c.Engine, i, cfg.Contention.ReadSvc, slab, i)
		s.priv.Init(i, slab)
		s.cache.Init(cfg.CacheEnabled, slab)
		c.coords[i] = topo.CoreCoord(i)
		c.memDist[i] = topo.MemDistance(i)
	}
	if cfg.NoC == scc.NoCDetailed {
		c.mesh = noc.NewMesh(topo, cfg.LinkSvc)
	}
	return c
}

// SetObserver attaches a timeline recorder to the chip and its engine
// (nil detaches both). Call before Run.
func (c *Chip) SetObserver(r *obs.Recorder) {
	c.obs = r
	c.Engine.SetObserver(r)
}

// ResourceUsage snapshots the utilization counters of the chip's FIFO
// servers — every MPB port, plus each directed mesh link when the
// detailed NoC model is on. Port rows are present even with the
// contention model disabled; they then simply show zero reservations,
// since nothing books port time.
func (c *Chip) ResourceUsage() []obs.ResUsage {
	var out []obs.ResUsage
	for i := range c.slots {
		m := &c.slots[i].mpb
		res, units, busy, queued := m.Port.Stats()
		out = append(out, obs.ResUsage{
			Class: obs.ResMPBPort, Name: m.PortName(),
			Reservations: res, Units: units,
			Busy: int64(busy), Queued: int64(queued),
		})
	}
	if c.mesh != nil {
		for _, ls := range c.mesh.LinkQueueStats() {
			out = append(out, obs.ResUsage{
				Class: obs.ResNoCLink, Name: ls.Link.String(),
				Reservations: ls.Reservations, Units: ls.Packets,
				Busy: int64(ls.Busy), Queued: int64(ls.Queued),
			})
		}
	}
	return out
}

// PendingStats sums the pending-write index counters of the chip's MPBs
// (reads, records visited, writes queued and listed, moves, sweeps) since
// construction or the last Reset — Reset zeroes them, so read them before
// a pooled chip is released.
func (c *Chip) PendingStats() mem.PendingStats {
	var sum mem.PendingStats
	for i := range c.slots {
		sum.Add(c.slots[i].mpb.Stats)
	}
	return sum
}

// Topo reports the chip's geometry.
func (c *Chip) Topo() scc.Topology { return c.topo }

// MPB returns core i's message passing buffer.
func (c *Chip) MPB(i int) *mem.MPB { return &c.slots[i].mpb }

// Private returns core i's private memory.
func (c *Chip) Private(i int) *mem.Private { return &c.slots[i].priv }

// HeldBytes reports the private-memory pages the chip holds, each
// distinct page once (mem.Slab.HeldBytes); Reset keeps them.
func (c *Chip) HeldBytes() int { return c.slab.HeldBytes() }

// PageStats reports the chip's private-memory page-write counts
// (mem.Slab.PageStats).
func (c *Chip) PageStats() mem.PageStats { return c.slab.PageStats() }

// Cache returns core i's L1 model.
func (c *Chip) Cache(i int) *mem.Cache { return &c.slots[i].cache }

// Mesh returns the detailed NoC model, or nil in analytic mode.
func (c *Chip) Mesh() *noc.Mesh { return c.mesh }

// Run executes body on every core concurrently in virtual time. A Chip
// supports one Run per construction or Reset; use AcquireChipN /
// ReleaseChip (or Reset directly) to reuse a chip across simulations.
func (c *Chip) Run(body func(core *Core)) {
	if c.runWrap == nil {
		c.runWrap = func(p *sim.Proc) {
			core := &c.slots[p.ID()].core
			core.chip, core.proc, core.id = c, p, p.ID()
			c.runBody(core)
		}
	}
	c.runBody = body
	c.Engine.Run(c.runWrap)
	c.runBody = nil
}

// Reset returns a cleanly completed (or never-run) chip to its freshly
// constructed state — zeroed memories, caches, counters and interrupt
// queues — while keeping every warm buffer, so the next Run allocates
// almost nothing. It reports false (and does nothing) when the chip is
// mid-run or its last Run panicked; such a chip must be discarded.
func (c *Chip) Reset() bool {
	if !c.Engine.Reset() {
		return false
	}
	for i := range c.slots {
		s := &c.slots[i]
		s.mpb.Reset()
		s.priv.Reset()
		s.cache.Flush()
		s.ipi.deliveries = s.ipi.deliveries[:0]
		s.ipi.consumed = 0
		c.Counter[i] = trace.CoreCounters{}
	}
	if c.mesh != nil {
		// Detailed-NoC link servers carry reservation state; rebuilding
		// is simplest and that mode is off on every hot path.
		c.mesh = noc.NewMesh(c.topo, c.Cfg.LinkSvc)
	}
	c.obs = nil
	return true
}

// Core is a per-process handle exposing the RMA primitives. It is only
// valid inside the body function passed to Chip.Run, on its own coroutine.
type Core struct {
	chip *Chip
	proc *sim.Proc
	id   int

	// runs is PutMemToMPB's reusable uniform-stride sub-extent list, a
	// window of the chip's.
	runs []writeRun

	// opf is the core's reusable RMA-op state machine (see frames.go):
	// one embedded instance suffices because ops never nest.
	opf opFrame
	// run is the frame that runs a step program to completion (see
	// prog.go), with the program buffer it interprets.
	run runFrame
	// flagBuf stages SetFlag's one-line payload between the op's pre
	// and post steps.
	flagBuf [scc.CacheLine]byte
}

// ID reports the core id.
func (c *Core) ID() int { return c.id }

// N reports the number of cores on the chip.
func (c *Core) N() int { return c.chip.NCores }

// Now reports the core's virtual clock.
func (c *Core) Now() sim.Time { return c.proc.Now() }

// Chip returns the chip the core belongs to.
func (c *Core) Chip() *Chip { return c.chip }

// Compute advances the core's clock by d, modelling local computation.
func (c *Core) Compute(d sim.Duration) {
	c.computePre(&c.opf, d)
	c.proc.Exec(&c.opf)
}

// Obs returns the chip's recorder, or nil when tracing is off. Layers
// above rma (occoll, the public collectives) emit their spans here.
func (c *Core) Obs() *obs.Recorder { return c.chip.obs }

// beginSpan opens an rma-category span at the core's current clock and
// returns the recorder to close it with, or nil when tracing is off.
// Callers pair it with endSpan after the op's last clock advance.
func (c *Core) beginSpan(name string, b obs.Bucket, a0, a1 obs.Arg) *obs.Recorder {
	o := c.chip.obs
	if o != nil {
		o.Begin(c.id, int64(c.proc.Now()), "rma", name, b, a0, a1)
	}
	return o
}

// endSpan closes a span opened by beginSpan (no-op on nil).
func (c *Core) endSpan(o *obs.Recorder) {
	if o != nil {
		o.End(c.id, int64(c.proc.Now()))
	}
}

// counters returns the core's counter record.
func (c *Core) counters() *trace.CoreCounters { return &c.chip.Counter[c.id] }

// coord is this core's tile coordinate; coordOf is any core's. Both are
// precomputed per chip.
func (c *Core) coord() scc.Coord           { return c.chip.coords[c.id] }
func (c *Core) coordOf(core int) scc.Coord { return c.chip.coords[core] }

// distMPB is the hop distance from this core to core dst's MPB.
func (c *Core) distMPB(dst int) int {
	return scc.HopDistance(c.chip.coords[c.id], c.chip.coords[dst])
}

// distMem is the hop distance from this core to its memory controller.
func (c *Core) distMem() int { return c.chip.memDist[c.id] }
