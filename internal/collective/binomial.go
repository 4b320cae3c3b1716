// Package collective implements the broadcast baselines the paper
// compares OC-Bcast against — the RCCE_comm binomial tree and
// scatter-allgather algorithms built on two-sided send/receive (Chan,
// 2010) — plus a naive sequential broadcast and, as extensions, further
// collective operations built on the same machinery (§7's future work).
//
// Each algorithm's loops append its calls — sends, receives, turn
// grants, shape fences, barriers and combines — to the Comm's call
// schedule, and the Comm runs the schedule as one step program of the
// core (rma.Core.Run), one call per step through the port's emitters: a
// collective is one machine section of the core's body.
package collective

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
)

// Comm wraps a two-sided port with collective operations. Create one per
// core inside Chip.Run.
type Comm struct {
	port *rcce.Port
	// sched is the call schedule of the collective being built, kept
	// across calls; next and round are EmitStep's cursor into it (the
	// call, and the chunk round of a two-sided one). fold is the reduce
	// op its combines fold with.
	sched       []call
	calls       *alloc.Arena[call]
	next, round int
	fold        ReduceOp
}

// call is one schedule entry. A two-sided exchange (callXch) sends
// sendLines lines at sendAddr to dst and receives recvLines lines from
// src at recvAddr, either side empty when its line count is 0; a turn
// grant names its peer in dst, a turn wait in src, a shape fence its
// shape in dst; a combine keeps its data on the send side and its
// scratch address in recvAddr.
type call struct {
	kind                uint8
	dst, src            int
	sendAddr, sendLines int
	recvAddr, recvLines int
}

const (
	callXch uint8 = iota
	callGrant
	callAwait
	callBarrier
	callShape
	callCombine
)

// Store is the storage the call schedules of one chip's run grow in, in
// blocks, so their growth is per chip. The first window of a schedule
// holds the longest 8-core one, so a small chip's collectives never
// regrow it.
type Store struct{ calls alloc.Arena[call] }

// Init sizes s for the schedules of `cores` cores.
func (s *Store) Init(cores int) { s.calls = alloc.Arena[call]{Per: alloc.Share(cores), Min: 20} }

// NewComm creates the collective layer over a two-sided port, over a
// store of its own.
func NewComm(port *rcce.Port) *Comm {
	c := new(Comm)
	st := new(Store)
	st.Init(1)
	c.Init(port, st)
	return c
}

// Init makes c the collective layer over port in place, growing its
// schedule in s, for callers that hold their per-core state by value.
func (c *Comm) Init(port *rcce.Port, s *Store) { *c = Comm{port: port, calls: &s.calls} }

// Port exposes the underlying two-sided port.
func (c *Comm) Port() *rcce.Port { return c.port }

// add appends one call to the schedule.
func (c *Comm) add(x call) { c.sched = c.calls.Append(c.sched, x) }

// sendRecv, send and recv append a two-sided exchange; a side with no
// lines emits nothing, so callers need not test for empty slices.
func (c *Comm) sendRecv(dst, sendAddr, sendLines, src, recvAddr, recvLines int) {
	c.add(call{dst: dst, sendAddr: sendAddr, sendLines: sendLines, src: src, recvAddr: recvAddr, recvLines: recvLines})
}

func (c *Comm) send(dst, addr, lines int) { c.sendRecv(dst, addr, lines, 0, 0, 0) }
func (c *Comm) recv(src, addr, lines int) { c.sendRecv(0, 0, 0, src, addr, lines) }

// combine folds `lines` lines at scratch into those at addr with the
// collective's reduce op.
func (c *Comm) combine(addr, scratch, lines int) {
	c.add(call{kind: callCombine, sendAddr: addr, sendLines: lines, recvAddr: scratch})
}

// EmitStep emits the schedule's next call — one chunk round of it, for
// a two-sided exchange — and reports whether calls remain.
func (c *Comm) EmitStep(p *rma.Prog, _ int) (more bool) {
	x := &c.sched[c.next]
	switch x.kind {
	case callXch:
		if c.port.EmitSendRecv(p, c.round, x.dst, x.sendAddr, x.sendLines, x.src, x.recvAddr, x.recvLines) {
			c.round++
			return true
		}
	case callGrant:
		c.port.EmitGrantTurn(p, x.dst)
	case callAwait:
		c.port.EmitAwaitTurn(p, x.src)
	case callBarrier:
		c.port.EmitBarrier(p)
	case callShape:
		c.port.EmitShape(p, x.dst)
	default: // callCombine
		p.Fold = c.fold
		p.CombinePriv(x.sendAddr, x.recvAddr, x.sendLines)
	}
	c.next, c.round = c.next+1, 0
	return c.next < len(c.sched)
}

// run executes the schedule as one machine section of the core's body
// and empties it.
func (c *Comm) run() {
	if len(c.sched) > 0 {
		c.next, c.round = 0, 0
		c.port.Core().Run(c)
		c.sched = c.sched[:0]
	}
}

func (c *Comm) checkBcastArgs(root, addr, lines int) (me, p int) {
	me = c.port.Core().ID()
	p = c.port.Core().N()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: root %d out of range [0,%d)", root, p))
	}
	if lines <= 0 {
		panic(fmt.Sprintf("collective: non-positive message size %d", lines))
	}
	if addr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("collective: address %d not cache-line aligned", addr))
	}
	return me, p
}

// BcastBinomial is the RCCE_comm binomial-tree broadcast (§5.2.2): a
// binary recursive tree of O(log2 P) levels, each level moving the whole
// message between node pairs with two-sided send/receive. The message is
// identified by (addr, lines) in every core's private memory.
func (c *Comm) BcastBinomial(root, addr, lines int) {
	c.bcastBinomial(root, addr, lines)
	c.run()
}

func (c *Comm) bcastBinomial(root, addr, lines int) {
	me, p := c.checkBcastArgs(root, addr, lines)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeTree | root})
	vrank := ((me - root) + p) % p

	// Receive phase: find the bit that links me to my parent.
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			c.recv((vrank-mask+root)%p, addr, lines)
			break
		}
		mask <<= 1
	}
	// Send phase: peel the mask back down, sending to each subtree.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			c.send((vrank+mask+root)%p, addr, lines)
		}
	}
}

// BcastNaive is the obvious lower baseline: the root sends the full
// message to every core, one after the other. Linear in P; motivates
// trees.
func (c *Comm) BcastNaive(root, addr, lines int) {
	me, p := c.checkBcastArgs(root, addr, lines)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeStar | root})
	if me == root {
		for i := 1; i < p; i++ {
			c.send((root+i)%p, addr, lines)
		}
	} else {
		c.recv(root, addr, lines)
	}
	c.run()
}
