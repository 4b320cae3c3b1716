package core

import (
	"fmt"

	"repro/internal/rma"
	"repro/internal/scc"
)

// Config parameterizes OC-Bcast.
type Config struct {
	// K is the fan-out of the message-propagation tree. The paper uses
	// k = 7 as the latency/throughput sweet spot and shows k up to 24
	// is contention-safe on the SCC.
	K int
	// BufLines is Moc, the chunk size in cache lines. The paper fixes
	// it to 96 so that two buffers plus k+1 flags fit in the 256-line
	// MPB for any k ≤ 47.
	BufLines int
	// DoubleBuffer enables the two-buffer pipeline of §4.2. Disabling
	// it (single buffer, still chunked and pipelined down the tree) is
	// the paper-motivated ablation.
	DoubleBuffer bool
	// SequentialNotify replaces the binary notification tree with the
	// naive scheme §4.1 argues against: the parent sets all k children's
	// notify flags itself. Ablation only.
	SequentialNotify bool
	// LeafDirect enables the §5.4 optimization the paper describes but
	// leaves out for simplicity: a leaf copies each chunk from its
	// parent's MPB straight to private off-chip memory, skipping its
	// own MPB entirely (it has no children to serve).
	LeafDirect bool
	// Channels is the number of independent MPB lanes the one-sided
	// collective family (internal/occoll) lays out, bounding how many
	// non-blocking collectives can be in flight per core at once. 0 or 1
	// means a single lane — the classic layout. OC-Bcast itself ignores
	// the field; occoll.Validate checks that all lanes fit in the MPB.
	Channels int
}

// DefaultConfig is the configuration of the paper's experiments.
func DefaultConfig() Config {
	return Config{K: 7, BufLines: 96, DoubleBuffer: true}
}

// Validate checks that the MPB layout fits: numBuffers·Moc data lines plus
// 1 notify flag plus k done flags below the four reserved lines at the
// top of the 256-line MPB.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("occast: k=%d must be >= 1", c.K)
	}
	if c.BufLines < 1 {
		return fmt.Errorf("occast: BufLines=%d must be >= 1", c.BufLines)
	}
	// The top of the MPB is reserved: three flag lines for the
	// root-change fence barrier and, below them, the MPMD activation
	// descriptor (mpmd.go) — whose first bytes would otherwise satisfy a
	// done-flag wait on the same line.
	if need := c.notifyLine() + 1 + c.K; need > descLine {
		return fmt.Errorf("occast: layout needs %d MPB lines (buffers %d×%d + %d flags), only the %d below the MPMD descriptor line and the three fence flags are available",
			need, c.numBuffers(), c.BufLines, c.K+1, descLine)
	}
	return nil
}

// Fence barrier flag lines (fixed, independent of Config so that cores
// with different configs could still fence together).
const (
	fenceChildA  = scc.MPBLinesPerCore - 3
	fenceChildB  = scc.MPBLinesPerCore - 2
	fenceRelease = scc.MPBLinesPerCore - 1
)

// numBuffers reports 2 with double buffering, else 1.
func (c Config) numBuffers() int {
	if c.DoubleBuffer {
		return 2
	}
	return 1
}

// notifyLine is the notify flag's MPB line: the chunk buffers occupy the
// lines below it, the K done flags the lines above.
func (c Config) notifyLine() int { return c.numBuffers() * c.BufLines }

// Broadcaster holds a core's persistent OC-Bcast state. Flag values are
// chunk sequence numbers offset by a base that advances after every
// broadcast, so flags never need resetting and stale values can never
// satisfy a later wait (§5.1's one-line-per-flag atomicity argument).
type Broadcaster struct {
	core     *rma.Core
	cfg      Config
	base     uint64
	lastRoot int
	fenceSeq uint64
	fencer   Fencer // optional shared quiesce (SetFence)

	// The broadcast in flight: this core's tree node and the message,
	// which run fills and the chunk steps read.
	t           Tree
	addr, lines int
}

// Fencer is a chip-wide barrier the broadcaster can route its
// root-change quiesce through (rcce.Port implements it). An interface
// rather than a func value so wiring one per core stays allocation-free.
type Fencer interface{ Barrier() }

// NewBroadcaster prepares OC-Bcast state for one core. The buffer/flag
// layout (and the fence lines above) anchor at the paper-standard
// 256-line per-core MPB share; topologies below that cannot host the
// protocol (the public API rejects them, and a smaller MPB fails fast on
// the first out-of-range line access).
func NewBroadcaster(core *rma.Core, cfg Config) *Broadcaster {
	b := new(Broadcaster)
	b.Init(core, cfg)
	return b
}

// Init makes b core's OC-Bcast state in place, for callers that hold
// their per-core state by value. It panics on an invalid configuration.
func (b *Broadcaster) Init(core *rma.Core, cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*b = Broadcaster{core: core, cfg: cfg, lastRoot: -1}
}

// SetFence routes the root-change quiesce through f instead of the
// private fence barrier below. Programs that mix OC-Bcast with the
// two-sided layer need this: the private fence's flag lines (the top
// three MPB lines) double as RCCE's handshake lines, and its private
// sequence numbers alias their values, so when the two layers overlap in
// time a fence wait can be falsely satisfied by a stale handshake tag —
// or a fence write can clobber a handshake a peer is still waiting on.
// Routing every quiesce through one shared primitive (rcce's barrier,
// which runs the same gather-release tree on disjoint lines with a
// single monotonic epoch) removes the aliasing. algsel wires this;
// standalone OC-Bcast programs keep the private fence.
func (b *Broadcaster) SetFence(f Fencer) { b.fencer = f }

// fence is a gather-release binary-tree barrier over three dedicated MPB
// flag lines. OC-Bcast's per-core notify lines have a single writer only
// while the tree shape is fixed; when the root changes between
// broadcasts, a new parent could overwrite a notify flag the old tree has
// not consumed yet. The fence quiesces the chip before adopting the new
// tree. (The paper's experiments always broadcast from core 0, so the
// fence never triggers there.)
func (b *Broadcaster) fence() {
	if b.fencer != nil {
		b.fencer.Barrier()
		return
	}
	b.fenceSeq++
	b.core.Run((*fenceStep)(b))
}

// fenceStep is the private fence's step program: one step, the shared
// gather-release tree over the three fence lines.
type fenceStep Broadcaster

func (f *fenceStep) EmitStep(p *rma.Prog, _ int) (more bool) {
	p.TreeBarrier(f.core.ID(), f.core.N(), fenceChildA, fenceChildB, fenceRelease, f.fenceSeq)
	return false
}

// Core returns the underlying RMA core handle.
func (b *Broadcaster) Core() *rma.Core { return b.core }

// Bcast broadcasts `lines` cache lines from the root's private memory at
// byte address addr into every other core's private memory at the same
// address. All cores (root included) must call Bcast with matching
// arguments, MPI style. It implements §4 in full (see
// Pipeline.EmitChunk for the per-chunk steps of each tree role).
func (b *Broadcaster) Bcast(root, addr, lines int) {
	c := b.core
	p := c.N()
	if lines <= 0 {
		panic(fmt.Sprintf("occast: non-positive message size %d", lines))
	}
	if addr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("occast: address %d not cache-line aligned", addr))
	}
	if p == 1 {
		return
	}
	if b.lastRoot != -1 && b.lastRoot != root {
		b.fence()
	}
	b.lastRoot = root
	t := b.buildTree(root)
	b.run(t, addr, lines)
}

// run executes this core's side of the chunk pipeline as tree node t —
// the root's if t.Rank is 0, else an intermediate node's or leaf's — and
// advances the flag-sequence base.
func (b *Broadcaster) run(t Tree, addr, lines int) {
	b.t, b.addr, b.lines = t, addr, lines
	b.core.Run((*bcastStep)(b))
	b.base += uint64((lines + b.cfg.BufLines - 1) / b.cfg.BufLines)
}

// bcastStep is the broadcast's step program: chunk by chunk, the shared
// §4 pipeline over the standalone layout — buffers from line 0, the
// monotonic sequence base, leaf-direct as configured, and only the root
// polls its done flags once more at the end to free its MPB.
type bcastStep Broadcaster

func (b *bcastStep) EmitStep(p *rma.Prog, ch int) (more bool) {
	pl := Pipeline{Tree: &b.t, Notify: b.cfg.notifyLine(),
		NB: b.cfg.numBuffers(), BufLines: b.cfg.BufLines, Base: b.base,
		LeafDirect: b.cfg.LeafDirect, Drain: b.t.Rank == 0,
		Addr: b.addr, Lines: b.lines}
	return pl.EmitChunk(p, ch)
}

// buildTree constructs this core's tree node, applying the ablation
// rewiring when configured.
func (b *Broadcaster) buildTree(root int) Tree {
	t := TreeFor(b.core.ID(), root, b.core.N(), b.cfg.K)
	if b.cfg.SequentialNotify {
		// Ablation: the parent notifies every child itself; nothing is
		// forwarded sibling-to-sibling.
		t.NotifyFwd = nil
		t.NotifyOwn = t.Children
		if t.Parent >= 0 {
			t.NotifyFrom = t.Parent
		}
	}
	return t
}
