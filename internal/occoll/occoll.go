// Package occoll extends the paper's OC-Bcast technique — pipelined k-ary
// trees over one-sided MPB RMA — to the remaining collectives its §7
// names as future work: broadcast, reduce, allreduce, scatter, gather and
// allgather. Where the two-sided RCCE-based extensions in
// internal/collective pay a synchronous flag handshake and an off-chip
// round trip per hop, every operation here moves data with one-sided
// puts/gets between MPBs and combines reduction chunks directly in the
// MPBs (rma.GetMPBCombine), the same way OC-Bcast forwards broadcast
// chunks.
//
// All operations share one propagation tree (core.BuildTree) and are
// parameterized by the same Config as OC-Bcast: fan-out K, chunk size
// BufLines (Moc) and DoubleBuffer. Every operation exists in a blocking
// and a non-blocking form: the blocking form is literally the
// non-blocking form followed by an immediate Wait, so both share one
// protocol implementation (see request.go for the progress engine that
// advances issued requests, and for how a protocol is written).
//
// The MPB is laid out in Config.Channels independent *lanes*, each with
// its own chunk buffers and flag block, so up to Channels collectives can
// be in flight per core at once. Lane 0 reproduces the classic layout:
// data chunks live in the same MPB buffer region as OC-Bcast's, and the
// lane's synchronization flags occupy a dedicated line block placed after
// OC-Bcast's flags and below the RCCE layer's lines, so the three
// families can coexist on one chip. Additional lanes stack above lane 0's
// flag block.
//
// Every operation is a chip-wide collective: all cores must call it with
// matching arguments and in the same program order (MPI style); lanes are
// assigned round-robin by issue order, so all cores agree on the lane
// without negotiation. An operation starts by zeroing the core's own lane
// flag lines and running a barrier, which makes it safe to interleave
// occoll operations with OC-Bcast broadcasts and RCCE two-sided traffic
// that scribble over the shared MPB region; it ends fully drained (no
// peer still reads this core's MPB), so the other families are safe to
// run afterwards.
package occoll

import (
	"fmt"
	"sync"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
)

// Config re-uses OC-Bcast's configuration: K, BufLines and DoubleBuffer
// have identical meaning (the extra occast-only ablation fields are
// ignored here), and Channels sets the number of MPB lanes.
type Config = core.Config

// ReduceOp combines src into dst; see collective.ReduceOp.
type ReduceOp = collective.ReduceOp

// Flag-line layout. OC-Bcast occupies [0, nb·BufLines) for data plus
// 1+K flag lines; lane 0's occoll flags follow immediately:
//
//	dnNotify            1 line   down direction: chunk available at parent
//	dnDone[K]           K lines  down direction: child i consumed chunk
//	upReady[K]          K lines  up direction: child i staged chunk
//	upConsumed          1 line   up direction: parent consumed my chunk
//
// Lane i ≥ 1 stacks nb·BufLines data lines plus the same 2K+2 flag block
// directly above lane i−1's flags. The whole stack must stay below line
// 251: the RCCE layer owns 251..255 (barrier + send/recv handshake) and
// the MPMD descriptor line is 252.
const maxFlagLine = 250

// numBuffers reports the chunk-buffer count per lane: 2 with double
// buffering, else 1. Every layout computation derives from this one
// helper so buffer rotation and line layout cannot desynchronize.
func numBuffers(c Config) int {
	if c.DoubleBuffer {
		return 2
	}
	return 1
}

func flagBase(c Config) int {
	return numBuffers(c)*c.BufLines + 1 + c.K
}

// channels reports the configured lane count (0 means 1).
func channels(c Config) int {
	if c.Channels < 1 {
		return 1
	}
	return c.Channels
}

// laneSpan is the number of MPB lines one lane occupies: its chunk
// buffers plus its 2K+2 flag block.
func laneSpan(c Config) int {
	return numBuffers(c)*c.BufLines + 2*c.K + 2
}

// laneLayout returns lane i's first data line and first flag line. Lane 0
// shares its data region with OC-Bcast (the classic layout); later lanes
// stack above lane 0's flag block.
func laneLayout(c Config, i int) (dataBase, flagBase0 int) {
	if i == 0 {
		return 0, flagBase(c)
	}
	base := flagBase(c) + 2*c.K + 2 + (i-1)*laneSpan(c)
	return base, base + numBuffers(c)*c.BufLines
}

// Validate reports whether the MPB layout fits: OC-Bcast's buffers and
// flags plus every lane's buffers and 2K+2 flag lines within lines
// 0..250.
func Validate(c Config) error {
	if err := c.Validate(); err != nil {
		return err
	}
	_, fb := laneLayout(c, channels(c)-1)
	if top := fb + 2*c.K + 1; top > maxFlagLine {
		return fmt.Errorf("occoll: %d lane(s) need flag lines up to %d, only 0..%d available (reduce Channels, BufLines or K)",
			channels(c), top, maxFlagLine)
	}
	return nil
}

// Collectives holds a core's one-sided collective state: the lane layout
// plus the progress engine for non-blocking requests. Create one per core
// inside Chip.Run, sharing the core's rcce.Port so barrier epochs stay
// aligned with the program's own Barrier calls.
type Collectives struct {
	core *rma.Core
	port *rcce.Port
	cfg  Config
	// lanes is the lane table; the classic one-lane layout keeps it on
	// firstLane instead of allocating.
	lanes     []lane
	firstLane [1]lane

	// reqs are the outstanding (issued, not yet completed) non-blocking
	// requests in issue order; nissued counts every issue for the
	// round-robin lane assignment. finished marks that the core's body
	// function returned (see Finish).
	reqs     []*Request
	nissued  uint64
	finished bool

	// freeReqs recycles completed request frames so a loop of
	// collectives stops allocating per issue.
	freeReqs []*Request
}

// New prepares one-sided collective state for one core. It panics on a
// configuration whose MPB layout does not fit (a programming error, like
// core.NewBroadcaster).
func New(c *rma.Core, port *rcce.Port, cfg Config) *Collectives {
	x := new(Collectives)
	x.Init(c, port, cfg)
	return x
}

// Init makes x core c's one-sided collective state in place, for callers
// that hold their per-core state by value (x points into itself and must
// not be copied afterwards). It panics like New.
func (x *Collectives) Init(c *rma.Core, port *rcce.Port, cfg Config) {
	if err := Validate(cfg); err != nil {
		panic(err)
	}
	*x = Collectives{core: c, port: port, cfg: cfg}
	if n := channels(cfg); n == 1 {
		x.lanes = x.firstLane[:]
	} else {
		x.lanes = make([]lane, n)
	}
	for i := range x.lanes {
		db, fb := laneLayout(cfg, i)
		x.lanes[i] = lane{x: x, idx: i, dataBase: db, flagBase: fb}
	}
}

// numBuffers reports the lane chunk-buffer count for this core's config.
func (x *Collectives) numBuffers() int { return numBuffers(x.cfg) }

// Lanes reports the configured lane count.
func (x *Collectives) Lanes() int { return len(x.lanes) }

// LaneIssues reports how many non-blocking collectives each MPB lane has
// carried on this core, indexed by lane. Lanes are claimed round-robin
// by issue order, so the counts differ by at most one; multi-lane
// clients (the serving runtime spreads concurrent batches over lanes)
// assert their dispatch really used the fan-out they configured.
func (x *Collectives) LaneIssues() []uint64 {
	out := make([]uint64, len(x.lanes))
	for i := range x.lanes {
		out[i] = x.lanes[i].issues
	}
	return out
}

// lane is one independent slice of the MPB layout: chunk buffers plus a
// flag block. All cores use identical lane layouts, so a lane's line
// numbers address the same protocol slot on every peer. The lane also
// holds the step program (rma.Prog) of the request occupying it:
// protocol steps append to it through rma's emitters, and the request
// frame runs what they appended (Request.Step).
type lane struct {
	x        *Collectives
	idx      int
	dataBase int
	flagBase int
	req      *Request // current/last request occupying the lane
	// issues counts the non-blocking collectives this lane has carried
	// (LaneIssues aggregates it for allocation accounting).
	issues uint64
	// prog is the current pipeline step's instructions — and, while the
	// request is stopped on a flag, that wait — sized at the lane's first
	// issue and reused for every step of every request. It is the lane's
	// own rather than the core's run program, so a stopped request keeps
	// its step while the core runs other protocols.
	prog rma.Prog
	// dnUsed is streamDown's reusable slot-occupancy table, one entry
	// per chunk buffer (numBuffers is at most 2).
	dnUsed *[2]occupant
}

// occupant records which child's transfer last staged into an MPB slot,
// and its per-edge sequence number, for streamDown's occupancy waits.
type occupant struct {
	childIdx int
	seq      uint64
}

// bufLine maps a chunk/transfer index to its MPB slot's first line.
func (l *lane) bufLine(i int) int {
	return l.dataBase + (i%l.x.numBuffers())*l.x.cfg.BufLines
}

// slotLine maps a buffer-slot index (0..numBuffers-1) to its first line.
func (l *lane) slotLine(s int) int { return l.dataBase + s*l.x.cfg.BufLines }

func (l *lane) dnNotifyLine() int     { return l.flagBase }
func (l *lane) dnDoneLine(i int) int  { return l.flagBase + 1 + i }
func (l *lane) upReadyLine(i int) int { return l.flagBase + 1 + l.x.cfg.K + i }
func (l *lane) upConsumedLine() int   { return l.flagBase + 1 + 2*l.x.cfg.K }

// checkArgs validates a collective's arguments; ok is false for the
// trivial 1-core chip (the operation is then a completed no-op).
func (x *Collectives) checkArgs(root, addr, lines int) (ok bool) {
	p := x.core.N()
	if lines <= 0 {
		panic(fmt.Sprintf("occoll: non-positive message size %d", lines))
	}
	if addr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("occoll: address %d not cache-line aligned", addr))
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("occoll: root %d out of range [0,%d)", root, p))
	}
	return p > 1
}

// begin quiesces the chip and resets this core's lane flag lines, so
// per-operation sequence numbers can restart at 1 regardless of what ran
// before, as one run of the core (EmitStep). It returns this core's tree
// node.
func (l *lane) begin(root int) core.Tree {
	c := l.x.core
	c.Run(l)
	return core.TreeFor(c.ID(), root, c.N(), l.x.cfg.K)
}

// EmitStep is begin's program. Step 0 zeroes my 2K+2 flag lines BEFORE
// the barrier (16 at K = 7, the run window): at this point nothing is in
// flight toward them (the lane's previous occoll operation drained, and
// non-occoll writers — e.g. a large RCCE send staging over this region —
// complete synchronously), and no peer re-enters the protocol until it
// passes the barrier. Step 1 is that barrier, which guarantees every
// core finished all earlier collectives on this lane — no stale reader
// of this core's lane buffers survives it.
func (l *lane) EmitStep(p *rma.Prog, step int) (more bool) {
	if step == 0 {
		for ln := l.flagBase; ln <= l.flagBase+2*l.x.cfg.K+1; ln++ {
			p.WriteLocal(ln)
		}
		return true
	}
	l.x.port.EmitBarrier(p)
	return false
}

// chunkSpan returns the line count of chunk ch out of `lines` total.
func (x *Collectives) chunkSpan(ch, lines int) int {
	m := lines - ch*x.cfg.BufLines
	if m > x.cfg.BufLines {
		m = x.cfg.BufLines
	}
	return m
}

// nchunks is the number of BufLines-sized chunks covering `lines`.
func (x *Collectives) nchunks(lines int) int {
	return (lines + x.cfg.BufLines - 1) / x.cfg.BufLines
}

// preorderMemo is the process-wide cache behind preorder: subtree
// preorders are pure functions of (rank, p, k) and iterated read-only,
// so the scatter/gather streams share them across operations and runs.
var preorderMemo = struct {
	sync.RWMutex
	m map[[3]int32][]int
}{m: make(map[[3]int32][]int)}

// preorder is a memoized preorderRanks(r, p, k, nil). Callers must not
// mutate the returned slice.
func preorder(r, p, k int) []int {
	key := [3]int32{int32(r), int32(p), int32(k)}
	preorderMemo.RLock()
	out, ok := preorderMemo.m[key]
	preorderMemo.RUnlock()
	if ok {
		return out
	}
	out = preorderRanks(r, p, k, nil)
	preorderMemo.Lock()
	preorderMemo.m[key] = out
	preorderMemo.Unlock()
	return out
}

// preorderRanks appends the DFS preorder of the subtree rooted at rank r
// (for p cores, fan-out k) to out. Parent and child compute identical
// orders, which defines the block order of scatter/gather edge streams.
func preorderRanks(r, p, k int, out []int) []int {
	out = append(out, r)
	for j := 1; j <= k; j++ {
		cr := r*k + j
		if cr >= p {
			break
		}
		out = preorderRanks(cr, p, k, out)
	}
	return out
}

// rankID maps a rank back to a core id for root s on p cores.
func rankID(rank, s, p int) int { return (s + rank) % p }
