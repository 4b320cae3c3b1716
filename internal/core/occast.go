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
	// the field.
	Channels int
}

// DefaultConfig is the configuration of the paper's experiments.
func DefaultConfig() Config {
	return Config{K: 7, BufLines: 96, DoubleBuffer: true}
}

// Layout returns the configuration's MPB layout — OC-Bcast's buffers and
// flags, its fence, the MPMD descriptor, RCCE's lines and the one-sided
// lanes (scc.LayoutFor) — or why it does not fit.
func (c Config) Layout() (*scc.Layout, error) {
	return scc.LayoutFor(scc.LayoutSpec{K: c.K, BufLines: c.BufLines, DoubleBuffer: c.DoubleBuffer, Channels: c.Channels})
}

// Validate checks that OC-Bcast's part of the MPB layout fits, whatever
// the lanes need (occoll.Validate checks those).
func (c Config) Validate() error {
	_, err := c.bcastLayout()
	return err
}

// bcastLayout is the layout with one lane, which OC-Bcast alone needs.
func (c Config) bcastLayout() (*scc.Layout, error) {
	c.Channels = 0
	return c.Layout()
}

// Broadcaster holds a core's persistent OC-Bcast state. Flag values are
// chunk sequence numbers offset by a base that advances after every
// broadcast, so flags never need resetting and stale values can never
// satisfy a later wait (§5.1's one-line-per-flag atomicity argument).
type Broadcaster struct {
	core     *rma.Core
	cfg      Config
	lay      *scc.Layout
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

// NewBroadcaster prepares OC-Bcast state for one core. It panics on a
// configuration whose layout does not fit.
func NewBroadcaster(core *rma.Core, cfg Config) *Broadcaster {
	lay, err := cfg.bcastLayout()
	if err != nil {
		panic(err)
	}
	b := new(Broadcaster)
	b.Init(core, cfg, lay)
	return b
}

// Init makes b core's OC-Bcast state in place over lay, cfg's validated
// layout, for callers that hold their per-core state by value.
func (b *Broadcaster) Init(core *rma.Core, cfg Config, lay *scc.Layout) {
	*b = Broadcaster{core: core, cfg: cfg, lay: lay, lastRoot: -1}
}

// SetFence routes the root-change quiesce through f instead of the
// private fence barrier below, whose lines the layout shares with RCCE's
// flags: a program that runs the two-sided layer beside OC-Bcast must
// route every quiesce through RCCE's barrier. algsel wires this;
// standalone OC-Bcast programs keep the private fence.
func (b *Broadcaster) SetFence(f Fencer) { b.fencer = f }

// fence is a gather-release binary-tree barrier over the layout's three
// fence lines. OC-Bcast's per-core notify lines have a single writer only
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
	p.TreeBarrier(f.core.ID(), f.core.N(), f.lay.Fence[0], f.lay.Fence[1], f.lay.Fence[2], f.fenceSeq)
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
// §4 pipeline over the layout's OC-Bcast buffers and tagged flags, the
// monotonic sequence base, leaf-direct as configured, and only the root
// polls its done flags once more at the end to free its MPB.
type bcastStep Broadcaster

func (b *bcastStep) EmitStep(p *rma.Prog, ch int) (more bool) {
	pl := Pipeline{Tree: &b.t, Data: b.lay.OCData, Notify: b.lay.OCNotify, Tag: b.lay.OCTag,
		NB: b.lay.Buffers, BufLines: b.cfg.BufLines, Base: b.base,
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
