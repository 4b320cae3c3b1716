// Package rcce reimplements the communication layer the paper's baselines
// are built on: the RCCE library's one-sided-backed *two-sided* send/recv
// (van der Wijngaart et al., 2011) plus a barrier. RCCE pipelines a
// message through the sender's MPB in chunks of at most 251 cache lines
// (the paper's Mrcce), with a fully synchronous per-chunk handshake — the
// very structure whose off-chip traffic OC-Bcast eliminates.
//
// Every call exists once, as an emitter into a step program (rma.Prog):
// the blocking Send, Recv, SendRecv and Barrier emit their one call and
// run it, and internal/collective emits a whole collective's calls into
// one run.
package rcce

import (
	"fmt"

	"repro/internal/rma"
	"repro/internal/scc"
)

// MPB line layout used by the RCCE layer (per core).
const (
	// PayloadLines is Mrcce: the send/recv staging buffer, lines 0..250.
	PayloadLines = 251
	// Barrier tree flag lines.
	lineBarrierChildA  = 251 // set by left child on arrival
	lineBarrierChildB  = 252 // set by right child on arrival
	lineBarrierRelease = 253 // set by parent on release
	// Two-sided handshake flag lines.
	lineReady = 254 // written by my current receiver: chunk consumed
	lineSent  = 255 // written by my current sender: chunk staged
)

// Port is a per-core handle to the two-sided layer. Create one per core
// inside Chip.Run. A core has at most one outstanding send and one
// outstanding receive, and at most one sender may target a given receiver
// at a time — the discipline RCCE itself imposes and that the RCCE_comm
// collectives satisfy by construction.
type Port struct {
	core *rma.Core
	// Monotonic per-pair chunk sequence numbers, taken at emission in
	// call order. Chunk tags never repeat, so stale flag lines can never
	// satisfy a future wait. Each table is made by the first call that
	// counts in it (see next): a port that only runs barriers, or carries
	// one-sided collectives, never makes one.
	sendSeq   map[int]uint64 // per destination
	recvSeq   map[int]uint64 // per source
	turnGrant map[int]uint64 // send turns granted, per peer
	turnWait  map[int]uint64 // send turns awaited, per peer
	epoch     uint64         // barrier epoch
	shape     int            // root of the last rooted collective, -1 before the first

	// xch is the blocking two-sided call in flight (see exchange.go),
	// which Send/Recv/SendRecv fill and run.
	xch exchange
}

// NewPort wraps a core with two-sided communication state. The RCCE line
// layout above is anchored in the paper-standard 256-line per-core MPB
// share (scc.MPBLinesPerCore); topologies below that cannot host the
// protocol — the public API rejects them up front, and a smaller MPB
// fails fast on the first out-of-range line access.
func NewPort(core *rma.Core) *Port {
	p := new(Port)
	p.Init(core)
	return p
}

// Init makes p core's port in place, for callers that hold their ports
// by value (one slice per chip) instead of allocating each with NewPort.
func (p *Port) Init(core *rma.Core) {
	*p = Port{core: core, shape: -1}
}

// next advances peer's counter in one of the port's per-peer sequence
// tables — making the table on its first use — and returns the new
// value: sequence numbers start at 1.
func next(seqs *map[int]uint64, peer int) uint64 {
	if *seqs == nil {
		*seqs = make(map[int]uint64)
	}
	(*seqs)[peer]++
	return (*seqs)[peer]
}

// Shape classes for EmitShape. Two consecutive collectives may skip the
// fence only when their pairing graphs coincide: same class AND same
// root. The binomial rank-space tree is one class shared by broadcast,
// reduce, gather and scatter (they pair (vrank, vrank±mask) identically,
// which is what lets reduce+broadcast fusions like AllReduce stay
// fence-free); the naive star, the scatter-allgather halving-tree+ring,
// the neighbor ring and the recursive halving/doubling exchange each pair
// cores differently and form their own classes.
const (
	ShapeTree = iota << 16
	ShapeStar
	ShapeSAG
	ShapeRing
	ShapeRecHalf
)

// EmitShape emits the fence between consecutive two-sided collectives
// whose pairing structure differs. The handshake lines (lineSent,
// lineReady) are single-writer by the RCCE discipline: within one
// collective a core's partner set is fixed by the pairing graph, and
// per-pair flow control keeps one writer per line. Across two
// collectives with DIFFERENT graphs a core's new partner can overwrite a
// flag its old partner's handshake still needs — a lost wake-up and a
// deadlock (e.g. Gather(0) directly followed by Gather(1), or a root-0
// tree gather followed by the neighbor-ring allgather). Every two-sided
// collective declares its shape here — a class constant above, OR'd
// with the root for rooted trees; when the shape changes, the cores run
// a barrier first, which drains all handshakes before any new-graph flag
// is written. Back-to-back collectives of the SAME shape — every
// measurement loop, and reduce+broadcast fusions like AllReduce — emit
// nothing, so the fence costs nothing on existing paths.
func (p *Port) EmitShape(prog *rma.Prog, shape int) {
	if p.shape >= 0 && p.shape != shape {
		p.EmitBarrier(prog)
	}
	p.shape = shape
}

// Core returns the underlying RMA core handle.
func (p *Port) Core() *rma.Core { return p.core }

// tag encodes (peer, seq) into a flag value. Sequence numbers are
// per-ordered-pair and monotonic, so equality matching is unambiguous.
func tag(peer int, seq uint64) uint64 {
	return uint64(peer+1)<<40 | seq
}

// Send transmits `lines` cache lines starting at byte address addr (32-B
// aligned) of this core's private memory to core dst. It blocks, RCCE
// style, until the receiver has consumed every chunk: per chunk the
// sender stages data into its OWN MPB (a local put), flags the receiver,
// and waits for the receiver's ack before reusing the staging buffer.
//
// The one-line sent channel admits a single in-flight sender per
// receiver. Tree collectives satisfy this by construction for broadcast
// and scatter; operations where several children target one parent
// (reduce, gather) serialize senders with turn grants (EmitGrantTurn,
// EmitAwaitTurn).
func (p *Port) Send(dst int, addr, lines int) {
	p.check("send to", dst, addr, lines)
	p.run(exchange{dst: dst, sendAddr: addr, sendLines: lines})
}

// Recv receives `lines` cache lines from core src into this core's
// private memory at byte address addr. Chunks are pulled from the
// sender's MPB with a one-sided get, then acked.
func (p *Port) Recv(src int, addr, lines int) {
	p.check("recv from", src, addr, lines)
	p.run(exchange{src: src, recvAddr: addr, recvLines: lines})
}

// SendRecv simultaneously sends to dst and receives from src (both
// nonzero-size). It stages each outgoing chunk and flags the receiver
// BEFORE blocking on the incoming chunk, which makes ring exchanges (each
// core sends left, receives right) deadlock-free — the reason MPI
// provides sendrecv and what the scatter-allgather baseline's exchange
// rounds need.
func (p *Port) SendRecv(dst, sendAddr, sendLines, src, recvAddr, recvLines int) {
	p.check("sendrecv to", dst, sendAddr, sendLines)
	p.check("sendrecv from", src, recvAddr, recvLines)
	p.run(exchange{dst: dst, sendAddr: sendAddr, sendLines: sendLines,
		src: src, recvAddr: recvAddr, recvLines: recvLines})
}

// run executes one blocking two-sided call: emit it, then Run it.
func (p *Port) run(x exchange) {
	p.xch = x
	p.xch.p = p
	p.core.Run(&p.xch)
}

// check validates one side of a blocking call.
func (p *Port) check(what string, peer, addr, lines int) {
	if peer == p.core.ID() {
		panic(fmt.Sprintf("rcce: %s self", what))
	}
	if lines <= 0 {
		panic(fmt.Sprintf("rcce: non-positive message size %d lines", lines))
	}
	if addr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("rcce: address %d not cache-line aligned", addr))
	}
}

// peer returns id, panicking unless it names a core of the chip.
func (p *Port) peer(id int) int {
	if n := p.core.N(); id < 0 || id >= n {
		panic(fmt.Sprintf("rcce: core %d outside the %d-core chip", id, n))
	}
	return id
}

// turnTag marks a turn-grant value, disjoint from data-ack tags.
func turnTag(peer int, seq uint64) uint64 {
	return 1<<63 | tag(peer, seq)
}

// EmitGrantTurn emits the grant that tells peer it may now send to this
// core. It writes the peer's ready line, which is safe because the
// granter is also the peer's current ack writer (the parent in
// reduce/gather), so the line keeps a single writer.
func (p *Port) EmitGrantTurn(prog *rma.Prog, peer int) {
	prog.SetFlag(p.peer(peer), lineReady, turnTag(p.core.ID(), next(&p.turnGrant, peer)))
}

// EmitAwaitTurn emits the wait for peer's send-turn grant.
func (p *Port) EmitAwaitTurn(prog *rma.Prog, peer int) {
	prog.WaitEQ(lineReady, turnTag(p.peer(peer), next(&p.turnWait, peer)))
}

// Barrier synchronizes all cores using a binary gather-release tree over
// MPB flags. Each call uses a fresh epoch value, so flag lines are safely
// reused across barriers (single writer per line per epoch, waits are ≥).
func (p *Port) Barrier() { p.core.Run((*barrier)(p)) }

// EmitBarrier emits one barrier at the next epoch: the shared
// gather-release tree over the port's three barrier lines.
func (p *Port) EmitBarrier(prog *rma.Prog) {
	p.epoch++
	prog.TreeBarrier(p.core.ID(), p.core.N(), lineBarrierChildA, lineBarrierChildB, lineBarrierRelease, p.epoch)
}

// barrier is Barrier's step program: one step, EmitBarrier.
type barrier Port

func (b *barrier) EmitStep(prog *rma.Prog, _ int) (more bool) {
	(*Port)(b).EmitBarrier(prog)
	return false
}
