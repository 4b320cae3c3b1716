package rma

import "repro/internal/scc"

// Flags are single-cache-line synchronization variables living in MPBs.
// The SCC guarantees 32 B read/write atomicity, so a flag occupies one
// line and needs no locking (paper §5.1). Flag values here are uint64
// sequence numbers (little-endian in the line's first 8 bytes) under
// their owner's tag in the high 32 bits (scc.FlagHolds): OC-Bcast flags
// carry the chunk sequence, so they never need resetting on the fast
// path.

// SetFlag writes value into line `line` of core dst's MPB. It is a 1-line
// put whose payload is a register value, so no source read is charged:
// completion = o^mpb_put + C^mpb_w(d).
func (c *Core) SetFlag(dst, line int, value uint64) {
	c.setFlagPre(&c.opf, dst, line, value)
	c.proc.Exec(&c.opf)
}

// WaitFlagGE blocks until the flag in this core's own MPB line satisfies
// seq — its owner tag (high 32 bits) equal to seq's and its value ≥ seq
// (scc.FlagHolds): flags carry monotonically increasing sequence numbers
// under their owner's tag — then charges one local read C^mpb_r(1), the
// final successful poll. Earlier unsuccessful polls cost no virtual time,
// matching the paper's modelling assumption that flag checking overlaps
// the wait. The comparison rides in the MPB's reusable wait record — no
// closure per call. It returns the flag's value.
func (c *Core) WaitFlagGE(line int, seq uint64) uint64 {
	c.waitPre(&c.opf, line, seq)
	c.proc.Exec(&c.opf)
	return c.opf.result
}

// ProbeFlagGE reports whether the flag in this core's own MPB line
// already satisfies seq as WaitFlagGE compares, charging no virtual time
// either way (and with no memory side effects at all), matching the
// modelling assumption that flag checking overlaps the wait. It is the
// primitive under the non-blocking collectives' Test/Progress path: a
// false result counts as a failed poll; after a true one the caller
// charges the successful poll read (Prog.Polled).
func (c *Core) ProbeFlagGE(line int, seq uint64) bool {
	if scc.FlagHolds(c.chip.MPB(c.id).ProbeU64(line, c.Now()), seq) {
		return true
	}
	c.counters().FlagPolls++
	return false
}
