// Package collective implements the broadcast baselines the paper
// compares OC-Bcast against — the RCCE_comm binomial tree and
// scatter-allgather algorithms built on two-sided send/receive (Chan,
// 2010) — plus a naive sequential broadcast and, as extensions, further
// collective operations built on the same machinery (§7's future work).
package collective

import (
	"fmt"

	"repro/internal/rcce"
	"repro/internal/scc"
)

// Comm wraps a two-sided port with collective operations. Create one per
// core inside Chip.Run.
type Comm struct {
	port *rcce.Port
	// combineBuf is the reusable host-side staging buffer for local
	// reduction combines (grown on demand, never shrunk), keeping the
	// steady-state collective path allocation-free.
	combineBuf []byte
}

// NewComm creates the collective layer over a two-sided port.
func NewComm(port *rcce.Port) *Comm {
	c := new(Comm)
	c.Init(port)
	return c
}

// Init makes c the collective layer over port in place, for callers
// that hold their per-core state by value.
func (c *Comm) Init(port *rcce.Port) { *c = Comm{port: port} }

// Port exposes the underlying two-sided port.
func (c *Comm) Port() *rcce.Port { return c.port }

// combineScratch returns two nbytes-sized staging slices for a local
// combine, backed by the Comm's reusable buffer. Callers overwrite both
// slices entirely (private-memory reads) before use.
func (c *Comm) combineScratch(nbytes int) (mine, theirs []byte) {
	if cap(c.combineBuf) < 2*nbytes {
		c.combineBuf = make([]byte, 2*nbytes)
	}
	b := c.combineBuf[:2*nbytes]
	return b[:nbytes], b[nbytes:]
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
	me, p := c.checkBcastArgs(root, addr, lines)
	if p == 1 {
		return
	}
	c.port.SyncShape(rcce.ShapeTree | root)
	vrank := ((me - root) + p) % p

	// Receive phase: find the bit that links me to my parent.
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % p
			c.port.Recv(src, addr, lines)
			break
		}
		mask <<= 1
	}
	// Send phase: peel the mask back down, sending to each subtree.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			dst := (vrank + mask + root) % p
			c.port.Send(dst, addr, lines)
		}
		mask >>= 1
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
	c.port.SyncShape(rcce.ShapeStar | root)
	if me == root {
		for i := 1; i < p; i++ {
			c.port.Send((root+i)%p, addr, lines)
		}
	} else {
		c.port.Recv(root, addr, lines)
	}
}
