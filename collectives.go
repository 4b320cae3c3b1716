package ocbcast

import (
	"repro/internal/algsel"
	"repro/internal/collective"
	"repro/internal/occoll"
)

// This file surfaces the extension collectives (the paper's §7 future
// work) in two families:
//
//   - Two-sided: Reduce, AllReduce, Gather, Scatter, AllGather ride the
//     RCCE send/recv baseline — every hop pays the synchronous
//     flag-handshake and off-chip round trip the paper's broadcast
//     avoids. They are the comparison baseline.
//   - One-sided (suffix OC): ReduceOC, AllReduceOC, GatherOC, ScatterOC,
//     AllGatherOC extend the OC-Bcast technique — pipelined k-ary trees,
//     chunks moved between MPBs with one-sided gets, reduction chunks
//     combined directly in the MPBs — and share OC-Bcast's (K,
//     ChunkLines, DoubleBuffer) configuration. The `fig-allreduce`
//     harness experiment measures the two families against each other.
//
// All collectives are chip-wide: every core must call them with matching
// arguments, MPI style.

// ReduceOp combines the src buffer into dst (equal lengths, cache-line
// multiples). See SumInt64 and MaxInt64.
type ReduceOp = collective.ReduceOp

// SumInt64 adds little-endian int64 lanes; MaxInt64 keeps lane maxima.
var (
	SumInt64 ReduceOp = collective.SumInt64
	MaxInt64 ReduceOp = collective.MaxInt64
)

// --- Two-sided family (RCCE send/recv substrate) ---

// Reduce combines every core's `lines` cache lines at addr with op into
// the root (binomial tree). scratchAddr is same-size private staging the
// operation may clobber on interior nodes.
func (c *Core) Reduce(root, addr, scratchAddr, lines int, op ReduceOp) {
	c.run(algsel.OpReduce, algsel.Generic,
		algsel.Args{Root: root, Addr: addr, Scratch: scratchAddr, Lines: lines, Reduce: op})
}

// AllReduce reduces to core 0 with the two-sided binomial tree, then
// broadcasts the result with OC-Bcast — the hybrid composition the
// paper's §7 suggests. For the fully one-sided version see AllReduceOC.
func (c *Core) AllReduce(addr, scratchAddr, lines int, op ReduceOp) {
	c.run(algsel.OpAllReduce, algsel.Generic,
		algsel.Args{Addr: addr, Scratch: scratchAddr, Lines: lines, Reduce: op})
}

// Gather collects each core's block (at addr + id·lines·32) onto the root.
func (c *Core) Gather(root, addr, lines int) {
	c.run(algsel.OpGather, algsel.Generic, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// Scatter distributes per-core blocks from the root's memory layout
// (block i at addr + i·lines·32) to each core.
func (c *Core) Scatter(root, addr, lines int) {
	c.run(algsel.OpScatter, algsel.Generic, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// AllGather exchanges every core's block so all cores hold all P blocks.
func (c *Core) AllGather(addr, lines int) {
	c.run(algsel.OpAllGather, algsel.Generic, algsel.Args{Addr: addr, Lines: lines})
}

// --- One-sided family (pipelined k-ary trees over MPB RMA) ---

// ReduceOC combines every core's `lines` cache lines at addr with op
// into the root: OC-Reduce, a k-ary reduction tree whose chunks are
// staged in MPBs and folded together with one-sided combining gets,
// pipelined like OC-Bcast. Needs no scratch area; non-root inputs are
// left untouched.
func (c *Core) ReduceOC(root, addr, lines int, op ReduceOp) {
	c.occ()
	c.run(algsel.OpReduce, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines, Reduce: op})
}

// AllReduceOC is OC-Reduce fused with an OC-Bcast of the result down the
// same tree and MPB slots; every core ends with the combined result at
// addr. At 48 cores it beats the two-sided Reduce+Bcast composition from
// a few hundred bytes up (2.5x and rising at 8 KiB).
func (c *Core) AllReduceOC(addr, lines int, op ReduceOp) {
	c.occ()
	c.run(algsel.OpAllReduce, algsel.OneSided, algsel.Args{Addr: addr, Lines: lines, Reduce: op})
}

// GatherOC collects each core's block (at addr + id·lines·32) onto the
// root, streamed up the k-ary tree through double-buffered MPB slots.
func (c *Core) GatherOC(root, addr, lines int) {
	c.occ()
	c.run(algsel.OpGather, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// ScatterOC distributes per-core blocks from the root's memory layout
// (block i at addr + i·lines·32), streamed down the k-ary tree
// store-and-forward.
func (c *Core) ScatterOC(root, addr, lines int) {
	c.occ()
	c.run(algsel.OpScatter, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// AllGatherOC is an OC-Gather onto core 0 fused with an OC-Bcast of the
// concatenated result, leaving all P blocks id-ordered at addr on every
// core.
func (c *Core) AllGatherOC(addr, lines int) {
	c.occ()
	c.run(algsel.OpAllGather, algsel.OneSided, algsel.Args{Addr: addr, Lines: lines})
}

// BcastOC broadcasts `lines` cache lines from root's addr to the same
// address everywhere — the OC-Bcast chunk pipeline run over an occoll
// lane, and the blocking twin of IBcastOC. (Broadcast remains the
// paper-faithful standalone OC-Bcast with its own flag layout.)
func (c *Core) BcastOC(root, addr, lines int) {
	c.occ()
	c.run(algsel.OpBcast, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// --- Non-blocking one-sided family (the progress engine) ---
//
// Each I*OC call issues the same lane protocol its blocking twin runs and
// returns a Request immediately; the blocking twin is literally issue +
// Wait, so its simulated timing is identical. The protocol advances only
// inside Progress, Request.Test and Request.Wait (MPI-style progress);
// between those calls the core is free to Compute, which is what the
// fig-overlap experiment measures. Requests must be issued in the same
// program order on every core (lanes are assigned round-robin by issue
// order) and each must be completed by exactly one Wait or true Test
// before the body returns. Wait progresses only its own request, so
// cores must also Wait multiple in-flight requests in the same order —
// mismatched completion orders deadlock like mismatched blocking
// collectives; poll with Test/Progress when the order can't be
// symmetric.

// Request is the handle of an in-flight non-blocking collective; see
// occoll.Request for the Wait/Test lifecycle.
type Request = occoll.Request

// IBcastOC starts a non-blocking BcastOC and returns its handle.
func (c *Core) IBcastOC(root, addr, lines int) *Request {
	c.occ()
	return c.env.Issue(algsel.OpBcast, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// IReduceOC starts a non-blocking ReduceOC and returns its handle.
func (c *Core) IReduceOC(root, addr, lines int, op ReduceOp) *Request {
	c.occ()
	return c.env.Issue(algsel.OpReduce, algsel.Args{Root: root, Addr: addr, Lines: lines, Reduce: op})
}

// IAllReduceOC starts a non-blocking AllReduceOC and returns its handle.
func (c *Core) IAllReduceOC(addr, lines int, op ReduceOp) *Request {
	c.occ()
	return c.env.Issue(algsel.OpAllReduce, algsel.Args{Addr: addr, Lines: lines, Reduce: op})
}

// IScatterOC starts a non-blocking ScatterOC and returns its handle.
func (c *Core) IScatterOC(root, addr, lines int) *Request {
	c.occ()
	return c.env.Issue(algsel.OpScatter, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// IGatherOC starts a non-blocking GatherOC and returns its handle.
func (c *Core) IGatherOC(root, addr, lines int) *Request {
	c.occ()
	return c.env.Issue(algsel.OpGather, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// IAllGatherOC starts a non-blocking AllGatherOC and returns its handle.
func (c *Core) IAllGatherOC(addr, lines int) *Request {
	c.occ()
	return c.env.Issue(algsel.OpAllGather, algsel.Args{Addr: addr, Lines: lines})
}

// Progress advances every outstanding non-blocking request as far as it
// can go without blocking. It never blocks and, when no awaited flag has
// arrived, costs no simulated time — interleave it with Compute slices to
// overlap communication with computation.
func (c *Core) Progress() { c.occ().Progress() }
