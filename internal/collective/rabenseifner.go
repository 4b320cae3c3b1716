package collective

import (
	"repro/internal/rcce"
	"repro/internal/scc"
)

// AllReduceRabenseifner is Rabenseifner's allreduce on the two-sided
// substrate: a recursive-halving reduce-scatter followed by a
// recursive-doubling allgather (Rabenseifner 2004, the algorithm MPI
// implementations use for large messages). Where the binomial
// Reduce+Bcast composition moves the full message up and back down
// ceil(log2 P) levels, here each of the log2 P' exchange steps moves only
// half the previous step's data, so the total bytes on the critical path
// are ~2·lines instead of ~2·lines·log2 P — the crossover against the
// tree algorithms is what the registry's tuner locates per message size.
//
// Non-power-of-two core counts use the standard fold: with P' the largest
// power of two ≤ P and r = P−P', the first 2r cores pair up — each odd
// core folds its vector into its even neighbour, which then participates
// on the pair's behalf (and sends the final result back at the end).
//
// scratchAddr names a private staging area of `lines` cache lines the
// operation may clobber on every core. Segments are line-granular; when
// lines < P' some cores own empty segments and simply skip those
// exchanges (both partners compute the same split, so the pairing stays
// matched).
func (c *Comm) AllReduceRabenseifner(addr, scratchAddr, lines int, op ReduceOp) {
	me, p := c.checkBcastArgs(0, addr, lines)
	c.checkReduceArgs(scratchAddr, op)
	if p == 1 {
		return
	}
	c.add(call{kind: callShape, dst: rcce.ShapeRecHalf})

	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	r := p - pof2

	// Fold phase: odd cores of the first 2r pairs fold into their even
	// neighbour and sit out; even cores adopt newrank = me/2, the rest
	// newrank = me − r.
	nr := -1
	switch {
	case me < 2*r && me%2 == 1:
		c.send(me-1, addr, lines)
	case me < 2*r:
		c.recv(me+1, scratchAddr, lines)
		c.combine(addr, scratchAddr, lines)
		nr = me / 2
	default:
		nr = me - r
	}

	// The RCCE port admits one in-flight peer per core (its sent/ready
	// channels are single MPB lines with equality-matched tags), and the
	// exchange partner changes every step — so steps are separated by
	// barriers, which every core (including folded-away odd ones) runs.
	// The paper's §5.2.2-style handshake overhead per step is what the
	// model charges; it is amortized away at the large message sizes the
	// algorithm targets.

	// Reduce-scatter by recursive halving: at each step partners own the
	// same segment [lo,hi); the lower newrank keeps the low half and
	// receives the partner's contribution for it (and vice versa).
	lo, hi := 0, lines
	for mask := pof2 / 2; mask >= 1; mask /= 2 {
		c.add(call{kind: callBarrier})
		if nr < 0 {
			continue
		}
		partner := realRank(nr^mask, r)
		mid := lo + (hi-lo+1)/2
		keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
		if nr&mask != 0 {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		c.sendRecv(partner, addr+sendLo*scc.CacheLine, sendHi-sendLo,
			partner, scratchAddr+keepLo*scc.CacheLine, keepHi-keepLo)
		if keepHi > keepLo {
			c.combine(addr+keepLo*scc.CacheLine, scratchAddr+keepLo*scc.CacheLine, keepHi-keepLo)
		}
		lo, hi = keepLo, keepHi
	}

	// Allgather by recursive doubling: partners exchange their
	// currently-owned segments, which are siblings inside the segment
	// owned after the step (segments rejoin in reverse halving order, so
	// ownership stays contiguous).
	for mask := 1; mask < pof2; mask *= 2 {
		c.add(call{kind: callBarrier})
		if nr < 0 {
			continue
		}
		partner := realRank(nr^mask, r)
		plo, phi := segment(nr^mask, pof2, mask, lines)
		c.sendRecv(partner, addr+lo*scc.CacheLine, hi-lo,
			partner, addr+plo*scc.CacheLine, phi-plo)
		if plo < lo {
			lo = plo
		}
		if phi > hi {
			hi = phi
		}
	}
	c.add(call{kind: callBarrier})

	// Unfold: even cores of the first 2r pairs return the result to their
	// odd neighbour.
	switch {
	case me < 2*r && me%2 == 1:
		c.recv(me-1, addr, lines)
	case me < 2*r:
		c.send(me+1, addr, lines)
	}
	c.run()
}

// realRank maps a power-of-two participant rank back to its core id for a
// fold remainder of r pairs.
func realRank(nr, r int) int {
	if nr < r {
		return nr * 2
	}
	return nr + r
}

// segment computes the line range [lo,hi) that participant nr owns after
// recursive halving has run down to granularity `until` (1 = fully
// halved): halving steps with mask ≥ until keep the low half when the
// partner's newrank bit is clear, the high half otherwise.
func segment(nr, pof2, until, lines int) (lo, hi int) {
	lo, hi = 0, lines
	for mask := pof2 / 2; mask >= until; mask /= 2 {
		mid := lo + (hi-lo+1)/2
		if nr&mask == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}
