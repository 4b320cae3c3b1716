package ocbcast

import (
	"repro/internal/algsel"
	"repro/internal/collective"
	"repro/internal/occoll"
	"repro/internal/workload"
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
// the root (binomial tree). scratchAddr is same-size private staging.
// Only the root's result is guaranteed: on a core that is not the root,
// the two-sided form may overwrite the whole region and the scratch with
// partial sums.
func (c *Core) Reduce(root, addr, scratchAddr, lines int, op ReduceOp) {
	c.run(workload.OpReduce, algsel.Generic,
		algsel.Args{Root: root, Addr: addr, Scratch: scratchAddr, Lines: lines, Reduce: op})
}

// AllReduce reduces to core 0 with the two-sided binomial tree, then
// broadcasts the result with OC-Bcast — the hybrid composition the
// paper's §7 suggests. For the fully one-sided version see AllReduceOC.
func (c *Core) AllReduce(addr, scratchAddr, lines int, op ReduceOp) {
	c.run(workload.OpAllReduce, algsel.Generic,
		algsel.Args{Addr: addr, Scratch: scratchAddr, Lines: lines, Reduce: op})
}

// Gather collects each core's block (at addr + id·lines·32) onto the
// root. On a core that is not the root, the two-sided form may overwrite
// the rest of its region with the blocks it relays; its own block stays.
func (c *Core) Gather(root, addr, lines int) {
	c.run(workload.OpGather, algsel.Generic, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// Scatter distributes per-core blocks from the root's memory layout
// (block i at addr + i·lines·32) to each core. On a core that is not the
// root, the two-sided form may overwrite the rest of its region with the
// blocks it relays; only its own block i is guaranteed.
func (c *Core) Scatter(root, addr, lines int) {
	c.run(workload.OpScatter, algsel.Generic, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// AllGather exchanges every core's block so all cores hold all P blocks.
func (c *Core) AllGather(addr, lines int) {
	c.run(workload.OpAllGather, algsel.Generic, algsel.Args{Addr: addr, Lines: lines})
}

// --- One-sided family (pipelined k-ary trees over MPB RMA) ---

// ReduceOC combines every core's `lines` cache lines at addr with op
// into the root: OC-Reduce, a k-ary reduction tree whose chunks are
// staged in MPBs and folded together with one-sided combining gets,
// pipelined like OC-Bcast. Needs no scratch area; non-root inputs are
// left untouched.
func (c *Core) ReduceOC(root, addr, lines int, op ReduceOp) {
	c.occ()
	c.run(workload.OpReduce, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines, Reduce: op})
}

// AllReduceOC is OC-Reduce fused with an OC-Bcast of the result down the
// same tree and MPB slots; every core ends with the combined result at
// addr. At 48 cores it beats the two-sided Reduce+Bcast composition from
// a few hundred bytes up (2.5x and rising at 8 KiB).
func (c *Core) AllReduceOC(addr, lines int, op ReduceOp) {
	c.occ()
	c.run(workload.OpAllReduce, algsel.OneSided, algsel.Args{Addr: addr, Lines: lines, Reduce: op})
}

// GatherOC collects each core's block (at addr + id·lines·32) onto the
// root, streamed up the k-ary tree through double-buffered MPB slots.
func (c *Core) GatherOC(root, addr, lines int) {
	c.occ()
	c.run(workload.OpGather, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// ScatterOC distributes per-core blocks from the root's memory layout
// (block i at addr + i·lines·32), streamed down the k-ary tree
// store-and-forward.
func (c *Core) ScatterOC(root, addr, lines int) {
	c.occ()
	c.run(workload.OpScatter, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// AllGatherOC is an OC-Gather onto core 0 fused with an OC-Bcast of the
// concatenated result, leaving all P blocks id-ordered at addr on every
// core.
func (c *Core) AllGatherOC(addr, lines int) {
	c.occ()
	c.run(workload.OpAllGather, algsel.OneSided, algsel.Args{Addr: addr, Lines: lines})
}

// BcastOC broadcasts `lines` cache lines from root's addr to the same
// address everywhere — the OC-Bcast chunk pipeline run over an occoll
// lane, and the blocking twin of IBcastOC. (Broadcast remains the
// paper-faithful standalone OC-Bcast with its own flag layout.)
func (c *Core) BcastOC(root, addr, lines int) {
	c.occ()
	c.run(workload.OpBcast, algsel.OneSided, algsel.Args{Root: root, Addr: addr, Lines: lines})
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
	return c.env.Issue(workload.OpBcast, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// IReduceOC starts a non-blocking ReduceOC and returns its handle.
func (c *Core) IReduceOC(root, addr, lines int, op ReduceOp) *Request {
	c.occ()
	return c.env.Issue(workload.OpReduce, algsel.Args{Root: root, Addr: addr, Lines: lines, Reduce: op})
}

// IAllReduceOC starts a non-blocking AllReduceOC and returns its handle.
func (c *Core) IAllReduceOC(addr, lines int, op ReduceOp) *Request {
	c.occ()
	return c.env.Issue(workload.OpAllReduce, algsel.Args{Addr: addr, Lines: lines, Reduce: op})
}

// IScatterOC starts a non-blocking ScatterOC and returns its handle.
func (c *Core) IScatterOC(root, addr, lines int) *Request {
	c.occ()
	return c.env.Issue(workload.OpScatter, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// IGatherOC starts a non-blocking GatherOC and returns its handle.
func (c *Core) IGatherOC(root, addr, lines int) *Request {
	c.occ()
	return c.env.Issue(workload.OpGather, algsel.Args{Root: root, Addr: addr, Lines: lines})
}

// IAllGatherOC starts a non-blocking AllGatherOC and returns its handle.
func (c *Core) IAllGatherOC(addr, lines int) *Request {
	c.occ()
	return c.env.Issue(workload.OpAllGather, algsel.Args{Addr: addr, Lines: lines})
}

// Progress advances every outstanding non-blocking request as far as it
// can go without blocking. It never blocks and, when no awaited flag has
// arrived, costs no simulated time — interleave it with Compute slices to
// overlap communication with computation.
func (c *Core) Progress() { c.occ().Progress() }
