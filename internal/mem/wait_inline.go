package mem

import "repro/internal/sim"

// This file is the state-machine face of the flag waits: inline frames
// (sim.Frame) cannot sit in WaitU64GE's blocking loop, so they drive the
// same satisfiedAt / embedded-record machinery through explicit check /
// arm / disarm steps and carry the loop in their own program counter.
// Every flag wait of the protocol stack (rma's WaitFlagGE/EQ, blocking
// or as a child frame) takes these steps; WaitU64GE remains for bodies
// that wait on a bare MPB without an rma core.

// WaitSatisfiedAt is one wait-loop iteration's satisfaction check:
// the earliest time ≥ now at which the line's leading uint64 compares
// ≥ val (or == val when eq), considering pending writes. ok is false
// if no current or pending state satisfies it, in which case the
// caller should ArmWait and block.
func (m *MPB) WaitSatisfiedAt(line int, now sim.Time, eq bool, val uint64) (te sim.Time, ok bool) {
	m.checkLine(line)
	op := waitGE
	if eq {
		op = waitEQ
	}
	return m.satisfiedAt(line, now, op, val)
}

// ArmWait registers p as blocked on the line's watch key with the same
// condition WaitU64GE would use: the MPB's embedded closure-free record
// when free, or a one-shot allocated condition when a second process
// is already parked through it. It reports whether the embedded record
// was taken; the caller passes that to DisarmWait when the machine
// wakes, mirroring WaitU64GE's release of the record after BlockCond
// returns. The caller must have just seen WaitSatisfiedAt report not
// ok at p.Now() and must return sim.StepBlock from the same Step.
func (m *MPB) ArmWait(p *sim.Proc, line int, eq bool, val uint64) (embedded bool) {
	key := m.watchKey(line)
	op := waitGE
	if eq {
		op = waitEQ
	}
	w := &m.wait
	if w.active {
		p.MachineBlock(key, &oneShotWait{m: m, p: p, line: line, op: op, val: val})
		return false
	}
	w.m, w.p, w.line, w.op, w.val = m, p, line, op, val
	w.active = true
	p.MachineBlock(key, w)
	return true
}

// DisarmWait releases the embedded wait record after a wake, the
// machine-mode counterpart of WaitU64GE's post-BlockCond cleanup. Pass
// the embedded result of the matching ArmWait; a one-shot condition
// needs no release (the signal scan already dropped it).
func (m *MPB) DisarmWait(embedded bool) {
	if embedded {
		m.wait.active = false
	}
}

// oneShotWait is ArmWait's fallback condition when the embedded record
// is taken — the allocated analogue of WaitU64GE's fallback closure.
type oneShotWait struct {
	m    *MPB
	p    *sim.Proc
	line int
	op   uint8
	val  uint64
}

func (c *oneShotWait) Holds() bool {
	_, ok := c.m.satisfiedAt(c.line, c.p.Now(), c.op, c.val)
	return ok
}
