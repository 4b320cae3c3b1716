package collective

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rcce"
	"repro/internal/scc"
)

// This file implements the further collective operations the paper's §7
// names as future work — reduce, allreduce, gather, scatter, allgather —
// on the same RCCE-style two-sided substrate as the broadcast baselines,
// so OC-style one-sided variants can be compared against them.

// ReduceOp combines src into dst, both cache-line multiples of equal
// length.
type ReduceOp func(dst, src []byte)

// SumInt64 treats buffers as little-endian int64 lanes and adds them.
func SumInt64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		v := int64(binary.LittleEndian.Uint64(dst[i:])) + int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], uint64(v))
	}
}

// MaxInt64 keeps the lane-wise maximum.
func MaxInt64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		if b > a {
			binary.LittleEndian.PutUint64(dst[i:], uint64(b))
		}
	}
}

// Reduce combines every core's `lines` cache lines at addr with op; the
// result lands at addr on the root. scratchAddr names a private-memory
// staging area of the same size that the operation may clobber on
// interior nodes. Binomial-tree reduction: the mirror image of
// BcastBinomial, O(log2 P) levels.
func (c *Comm) Reduce(root, addr, scratchAddr, lines int, op ReduceOp) {
	c.reduce(root, addr, scratchAddr, lines, op)
	c.run()
}

func (c *Comm) reduce(root, addr, scratchAddr, lines int, op ReduceOp) {
	me, p := c.checkBcastArgs(root, addr, lines)
	c.checkReduceArgs(scratchAddr, op)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeTree | root})
	vrank := ((me - root) + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			// Wait until the parent is ready for THIS child: several
			// children share the parent's one-line sent channel.
			dst := (vrank - mask + root) % p
			c.add(call{kind: callAwait, src: dst})
			c.send(dst, addr, lines)
			return
		}
		if vrank+mask < p {
			src := (vrank + mask + root) % p
			c.add(call{kind: callGrant, dst: src})
			c.recv(src, scratchAddr, lines)
			// Combine locally, charged as one compute pass over the data.
			c.combine(addr, scratchAddr, lines)
		}
	}
}

// checkReduceArgs validates a reduction's scratch area and op, and makes
// op the one its combines fold with.
func (c *Comm) checkReduceArgs(scratchAddr int, op ReduceOp) {
	if scratchAddr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("collective: scratch address %d not cache-line aligned", scratchAddr))
	}
	if op == nil {
		panic("collective: nil reduce op")
	}
	c.fold = op
}

// AllReduce is Reduce to core 0 followed by a binomial broadcast of the
// result, in one run.
func (c *Comm) AllReduce(addr, scratchAddr, lines int, op ReduceOp) {
	c.reduce(0, addr, scratchAddr, lines, op)
	c.bcastBinomial(0, addr, lines)
	c.run()
}

// Gather collects each core's `lines`-line block into the root: core i's
// block ends up at addr + i·lines·32 in the root's private memory (and
// partially on interior nodes). Binomial-tree gather in rank space.
func (c *Comm) Gather(root, addr, lines int) {
	me, p := c.checkBcastArgs(root, addr, lines)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeTree | root})
	vrank := ((me - root) + p) % p
	// blockAddr maps a rank-space block to its byte address: blocks are
	// stored by ORIGINAL core id so the root's layout is id-ordered
	// regardless of root rotation.
	blockAddr := func(vr int) int { return addr + ((vr+root)%p)*lines*scc.CacheLine }

	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			// Send my accumulated range [vrank, vrank+mask) ∩ [0,p),
			// once the parent grants this child its turn.
			dst := (vrank - mask + root) % p
			c.add(call{kind: callAwait, src: dst})
			for vr := vrank; vr < min(vrank+mask, p); vr++ {
				c.send(dst, blockAddr(vr), lines)
			}
			break
		}
		if vrank+mask < p {
			src := (vrank + mask + root) % p
			c.add(call{kind: callGrant, dst: src})
			for vr := vrank + mask; vr < min(vrank+2*mask, p); vr++ {
				c.recv(src, blockAddr(vr), lines)
			}
		}
	}
	c.run()
}

// Scatter distributes P `lines`-line blocks from the root: core i
// receives the block stored at addr + i·lines·32 in the root's memory,
// into the same address in its own memory. Recursive halving, the mirror
// of Gather.
func (c *Comm) Scatter(root, addr, lines int) {
	me, p := c.checkBcastArgs(root, addr, lines)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeTree | root})
	vrank := ((me - root) + p) % p
	blockAddr := func(vr int) int { return addr + ((vr+root)%p)*lines*scc.CacheLine }

	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % p
			for vr := vrank; vr < min(vrank+mask, p); vr++ {
				c.recv(src, blockAddr(vr), lines)
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			dst := (vrank + mask + root) % p
			for vr := vrank + mask; vr < min(vrank+2*mask, p); vr++ {
				c.send(dst, blockAddr(vr), lines)
			}
		}
	}
	c.run()
}

// AllGather exchanges every core's `lines`-line block so all cores end up
// with all P blocks, id-ordered: core i contributes the block at
// addr + i·lines·32. Ring algorithm with parity-ordered send/recv, P−1
// rounds — the same exchange structure as the allgather phase of the
// scatter-allgather broadcast.
func (c *Comm) AllGather(addr, lines int) {
	me, p := c.checkBcastArgs(0, addr, lines)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeRing})
	blockAddr := func(id int) int { return addr + ((id%p+p)%p)*lines*scc.CacheLine }
	left, right := (me-1+p)%p, (me+1)%p
	sendFirst := me%2 == 0
	if p%2 == 1 && me == p-1 {
		sendFirst = false
	}
	for t := 0; t < p-1; t++ {
		sendBlock := blockAddr(me + t)
		recvBlock := blockAddr(me + 1 + t)
		if sendFirst {
			c.send(left, sendBlock, lines)
			c.recv(right, recvBlock, lines)
		} else {
			c.recv(right, recvBlock, lines)
			c.send(left, sendBlock, lines)
		}
	}
	c.run()
}
