package collective

import (
	"repro/internal/rcce"
	"repro/internal/scc"
)

// sliceStart returns the starting line of slice i when `lines` lines are
// split into p balanced contiguous slices (slice i covers
// [i·lines/p, (i+1)·lines/p)). Slices may be empty when lines < p.
func sliceStart(i, lines, p int) int { return i * lines / p }

// BcastScatterAllgather is the RCCE_comm large-message broadcast (§5.3.2):
// a recursive-halving scatter distributes one slice per core, then P−1
// ring exchange rounds (the Bruck-style allgather the paper describes:
// "core i sends to core i−1 the slices it received in the previous step")
// reassemble the full message everywhere.
//
// RCCE's two-sided send is fully synchronous (it blocks until the
// receiver has pulled the data), so — like RCCE_comm — the exchange uses
// strict send/recv with parity ordering for deadlock freedom, putting
// BOTH transfers on each core's critical path per round. That synchronous
// coupling is exactly the 2(P−1)(Cmem_put+Cmem_get) term of Formula 16
// that OC-Bcast's one-sided design avoids.
func (c *Comm) BcastScatterAllgather(root, addr, lines int) {
	c.scatterAllgather(root, addr, lines, false)
}

// BcastScatterAllgatherOneSided is the improvement the paper's §5.4
// sketches: "adapting the two-sided scatter-allgather algorithm to use
// the one-sided primitives". The algorithm is identical, but each ring
// exchange stages its outgoing slice and flags the receiver BEFORE
// blocking on the incoming slice (one sendrecv), so the two transfers of
// a round overlap instead of serializing — roughly halving the
// allgather's critical path relative to RCCE's synchronous send/recv
// while remaining well short of OC-Bcast's pipelined tree.
func (c *Comm) BcastScatterAllgatherOneSided(root, addr, lines int) {
	c.scatterAllgather(root, addr, lines, true)
}

func (c *Comm) scatterAllgather(root, addr, lines int, overlapped bool) {
	me, p := c.checkBcastArgs(root, addr, lines)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeSAG | root})
	vrank := ((me - root) + p) % p
	toID := func(vr int) int { return (vr%p + p + root) % p }
	// rangeLines is the contiguous slice range [a,b) in rank space; an
	// empty range makes an empty side, which emits nothing.
	rangeLines := func(a, b int) (off, n int) {
		lo, hi := sliceStart(min(a, p), lines, p), sliceStart(min(b, p), lines, p)
		return addr + lo*scc.CacheLine, hi - lo
	}

	// --- Scatter phase: recursive halving over the binomial tree. ---
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			off, n := rangeLines(vrank, vrank+mask)
			c.recv(toID(vrank-mask), off, n)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			off, n := rangeLines(vrank+mask, vrank+2*mask)
			c.send(toID(vrank+mask), off, n)
		}
	}

	// Phase separation: the receiver side of a core's first ring
	// exchange shares the one-line `sent` channel with its scatter
	// receive, so a fast core must not start the ring while a slow
	// neighbour is still mid-scatter (two writers on one flag line).
	c.add(call{kind: callBarrier})

	// --- Allgather phase: P−1 ring exchange rounds. In round t, rank r
	// sends slice (r+t) mod P to rank r−1 and receives slice (r+1+t)
	// mod P from rank r+1.
	left, right := toID(vrank-1), toID(vrank+1)
	sendFirst := vrank%2 == 0
	if p%2 == 1 && vrank == p-1 {
		// Odd P leaves two adjacent even ranks (P−1 and 0); rank P−1
		// receives first to break the symmetry.
		sendFirst = false
	}
	for t := 0; t < p-1; t++ {
		sOff, sN := rangeLines((vrank+t)%p, (vrank+t)%p+1)
		rOff, rN := rangeLines((vrank+1+t)%p, (vrank+1+t)%p+1)
		switch {
		case overlapped:
			c.sendRecv(left, sOff, sN, right, rOff, rN)
		case sendFirst:
			c.send(left, sOff, sN)
			c.recv(right, rOff, rN)
		default:
			c.recv(right, rOff, rN)
			c.send(left, sOff, sN)
		}
	}
	c.run()
}
