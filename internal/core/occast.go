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
// 1 notify flag plus k done flags within the 256-line MPB.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("occast: k=%d must be >= 1", c.K)
	}
	if c.BufLines < 1 {
		return fmt.Errorf("occast: BufLines=%d must be >= 1", c.BufLines)
	}
	nb := 1
	if c.DoubleBuffer {
		nb = 2
	}
	// Three lines at the top of the MPB are reserved for the
	// root-change fence barrier.
	avail := scc.MPBLinesPerCore - 3
	need := nb*c.BufLines + 1 + c.K
	if need > avail {
		return fmt.Errorf("occast: layout needs %d MPB lines (buffers %d×%d + %d flags), only %d available",
			need, nb, c.BufLines, c.K+1, avail)
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

// MPB line layout helpers.
func (c Config) bufLine(chunk int) int {
	return (chunk % c.numBuffers()) * c.BufLines
}
func (c Config) notifyLine() int    { return c.numBuffers() * c.BufLines }
func (c Config) doneLine(i int) int { return c.numBuffers()*c.BufLines + 1 + i }

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

	// frame is the reusable state machine for the chunk pipeline (see
	// frames.go) that Bcast fills and Execs; one suffices because a core
	// runs at most one broadcast at a time.
	frame bcastFrame
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
	c := b.core
	me, n := c.ID(), c.N()
	left, right := 2*me+1, 2*me+2
	if left < n {
		c.WaitFlagGE(fenceChildA, b.fenceSeq)
	}
	if right < n {
		c.WaitFlagGE(fenceChildB, b.fenceSeq)
	}
	if me != 0 {
		parent := (me - 1) / 2
		line := fenceChildA
		if me == 2*parent+2 {
			line = fenceChildB
		}
		c.SetFlag(parent, line, b.fenceSeq)
		c.WaitFlagGE(fenceRelease, b.fenceSeq)
	}
	if left < n {
		c.SetFlag(left, fenceRelease, b.fenceSeq)
	}
	if right < n {
		c.SetFlag(right, fenceRelease, b.fenceSeq)
	}
}

// Core returns the underlying RMA core handle.
func (b *Broadcaster) Core() *rma.Core { return b.core }

// Bcast broadcasts `lines` cache lines from the root's private memory at
// byte address addr into every other core's private memory at the same
// address. All cores (root included) must call Bcast with matching
// arguments, MPI style. It implements §4 in full:
//
// root, per chunk: wait for the chunk's buffer to be consumed (done
// flags), put the chunk from private memory into its own MPB, notify the
// first two children of its binary notification tree.
//
// non-root, per chunk: wait notifyFlag; (i) forward the notification
// within the parent's notification tree; (ii) get the chunk from the
// parent's MPB into its own MPB (waiting for its own buffer to be free
// first, if it has children); (iii) set its doneFlag in the parent's MPB;
// (iv) notify the first two of its own children; (v) get the chunk from
// its MPB to private off-chip memory.
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
// the root's if t.Rank is 0, else an intermediate node's or leaf's (see
// frames.go) — and advances the flag-sequence base.
func (b *Broadcaster) run(t Tree, addr, lines int) {
	pc := nNotifyWait
	if t.Rank == 0 {
		pc = rDoneWait
	}
	b.frame = bcastFrame{b: b, t: t, addr: addr, lines: lines,
		nchunks: (lines + b.cfg.BufLines - 1) / b.cfg.BufLines,
		nb:      b.cfg.numBuffers(), pc: pc}
	b.core.Exec(&b.frame)
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
