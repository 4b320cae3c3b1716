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

	"repro/internal/alloc"
	"repro/internal/rma"
	"repro/internal/scc"
)

// Port is a per-core handle to the two-sided layer. Create one per core
// inside Chip.Run. A core has at most one outstanding send and one
// outstanding receive, and at most one sender may target a given receiver
// at a time — the discipline RCCE itself imposes and that the RCCE_comm
// collectives satisfy by construction.
type Port struct {
	core *rma.Core
	// seqs holds the monotonic per-pair sequence numbers, taken at
	// emission in call order, one row per peer the port has counted for,
	// in first-use order (see row). Chunk tags never repeat, so stale
	// flag lines can never satisfy a future wait. The table is a window
	// of rows, taken by the first call that counts in it: a port that
	// only runs barriers, or carries one-sided collectives, takes none.
	seqs  []peerSeqs
	rows  *alloc.Arena[peerSeqs]
	epoch uint64 // barrier epoch
	shape int    // root of the last rooted collective, -1 before the first

	// xch is the blocking two-sided call in flight (see exchange.go),
	// which Send/Recv/SendRecv fill and run.
	xch exchange
}

// peerSeqs is one peer's row of a port's sequence table: chunks sent to
// and received from it, and send turns granted to it and awaited from it.
type peerSeqs struct {
	peer                    int
	send, recv, grant, wait uint64
}

// Store is the storage the ports of one chip's run take their sequence
// tables from, in blocks, so the ports' growth is per chip.
type Store struct{ rows alloc.Arena[peerSeqs] }

// Init sizes s for the ports of `cores` cores.
func (s *Store) Init(cores int) { s.rows = alloc.Arena[peerSeqs]{Per: alloc.Share(cores), Min: 4} }

// NewPort wraps a core with two-sided communication state, over a store
// of its own.
func NewPort(core *rma.Core) *Port {
	p, st := new(Port), new(Store)
	st.Init(1)
	p.Init(core, st)
	return p
}

// Init makes p core's port in place, taking its sequence table from s,
// for callers that hold their ports by value (one slice per chip)
// instead of allocating each with NewPort.
func (p *Port) Init(core *rma.Core, s *Store) {
	*p = Port{core: core, rows: &s.rows, shape: -1}
}

// row returns peer's row of the sequence table, adding it on the
// peer's first use. A port counts for a handful of peers (a tree's
// parent and children, a ring's neighbours), so a scan is all it needs.
func (p *Port) row(peer int) *peerSeqs {
	for i := range p.seqs {
		if p.seqs[i].peer == peer {
			return &p.seqs[i]
		}
	}
	p.seqs = p.rows.Append(p.seqs, peerSeqs{peer: peer})
	return &p.seqs[len(p.seqs)-1]
}

// next advances a counter of a row and returns the new value: sequence
// numbers start at 1.
func next(seq *uint64) uint64 {
	*seq++
	return *seq
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
// whose pairing structure differs. The handshake lines (scc.RCCESent,
// scc.RCCEReady) are single-writer by the RCCE discipline: within one
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

// tag encodes (peer, seq) into a flag value. The peer rides in the high
// 32 bits, the flag wait's tag (scc.FlagHolds), so a wait matches only
// its peer's writes; sequence numbers are per-ordered-pair and monotonic,
// and a peer writes its next one only after this core consumed the last.
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
	prog.SetFlag(p.peer(peer), scc.RCCEReady, turnTag(p.core.ID(), next(&p.row(peer).grant)))
}

// EmitAwaitTurn emits the wait for peer's send-turn grant.
func (p *Port) EmitAwaitTurn(prog *rma.Prog, peer int) {
	prog.WaitGE(scc.RCCEReady, turnTag(p.peer(peer), next(&p.row(peer).wait)))
}

// Barrier synchronizes all cores using a binary gather-release tree over
// MPB flags. Each call uses a fresh epoch value, so flag lines are safely
// reused across barriers (single writer per line per epoch, waits are ≥).
func (p *Port) Barrier() { p.core.Run((*barrier)(p)) }

// EmitBarrier emits one barrier at the next epoch: the shared
// gather-release tree over the port's three barrier lines.
func (p *Port) EmitBarrier(prog *rma.Prog) {
	p.epoch++
	prog.TreeBarrier(p.core.ID(), p.core.N(), scc.RCCEBarrierChildA, scc.RCCEBarrierChildB, scc.RCCEBarrierRelease, p.epoch)
}

// barrier is Barrier's step program: one step, EmitBarrier.
type barrier Port

func (b *barrier) EmitStep(prog *rma.Prog, _ int) (more bool) {
	(*Port)(b).EmitBarrier(prog)
	return false
}
