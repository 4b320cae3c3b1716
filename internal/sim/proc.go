package sim

import "repro/internal/obs"

type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateBlocked
	stateDone
)

// Proc is one simulated processor: a body running on a coroutine that
// the engine loop resumes in virtual-time order. All methods must be
// called from within the process's own body function.
//
// Each Run takes the proc's coroutine from a process-wide idle list (or
// makes one) and a clean Run gives it back, so once the list is warm a
// Run spawns no goroutine — see coro.
type Proc struct {
	id    int
	eng   *Engine
	now   Time
	state procState

	// queued reports whether the process is in the engine's run queue
	// (not running, blocked, or done).
	queued bool

	// blockRec is the process's reusable watcher record: a process
	// blocks on at most one watch key at a time, and the entry is
	// removed from the watcher list exactly when the process wakes.
	blockRec blockedProc

	// co is the coroutine running this process's body during a Run (nil
	// outside one). Exactly one body — or the engine loop — holds the
	// control token at any time: the loop resumes co to hand it over,
	// and the body gives it back by yielding (park).
	co *coro

	// frames is the proc's inline state-machine stack (see Exec/Call):
	// non-empty exactly while the proc is inside a machine section, in
	// which case the engine loop steps the top frame directly instead of
	// resuming the body. It starts on frameSlots — a protocol frame
	// with an rma op under it, the deepest any layer nests today — and
	// moves to the heap if a section nests deeper; either way the backing
	// array is retained across sections and runs, so Exec allocates
	// nothing.
	frames     []Frame
	frameSlots [2]Frame

	// wokeMachine marks that the machine blocked via MachineBlock and
	// the next runMachine entry must emit the wake instant blockOn's
	// body form emits after its park.
	wokeMachine bool
}

// init prepares process id of engine e in place. A Proc points into
// itself (frames into frameSlots, watcher entries at blockRec), so it
// must never be copied afterwards.
func (p *Proc) init(e *Engine, id int) {
	*p = Proc{
		id:    id,
		eng:   e,
		state: stateNew,
	}
	p.frames = p.frameSlots[:0]
}

// ID reports the process id (0..N-1).
func (p *Proc) ID() int { return p.id }

// Now reports the process's current virtual time.
func (p *Proc) Now() Time { return p.now }

// Engine returns the engine driving this process.
func (p *Proc) Engine() *Engine { return p.eng }

// runBody executes one simulation's body on the proc's coroutine. The
// done instant, state flip and finished count run in a deferred function
// so a panicking body is still accounted for before its coroutine hands
// the token back (see coro.serve); the engine loop then re-raises the
// panic on Run's caller. A body unwound by a torn-down run (errStopped)
// is accounted for nothing: its engine is dead.
func (p *Proc) runBody() {
	defer func() {
		r := recover()
		if r == errStopped {
			return
		}
		if r != nil {
			p.eng.panicVal = r
		}
		if o := p.eng.obs; o != nil {
			// The done instant pins the core's final clock on its
			// track; attribution uses it as the core's total.
			o.Instant(p.id, int64(p.now), "sim", "done", obs.Arg{}, obs.Arg{})
		}
		p.state = stateDone
		p.eng.finished++
	}()
	p.eng.body(p)
}

// keepRunning reports whether p — which must be the currently running
// process — is still strictly first in (clock, id) order among all
// runnable processes. If so the scheduler would hand control straight
// back, so the switch is elided entirely: same schedule, no coroutine
// switch. The comparison reads the top entry's inline key, not its
// Proc.
func (p *Proc) keepRunning() bool {
	if p.state != stateRunnable {
		return false
	}
	h := p.eng.runq.heap
	return len(h) == 0 || p.now < h[0].now || (p.now == h[0].now && p.id < h[0].id)
}

// doYield returns control to the scheduler and waits to be resumed,
// unless the fast path shows this process would be chosen again anyway.
func (p *Proc) doYield() {
	if p.keepRunning() {
		return
	}
	p.slowYield()
}

// slowYield counts a slow-path switch and gives up the control token
// (see park).
func (p *Proc) slowYield() {
	p.eng.switches++
	p.park()
}

// park hands the control token back to the engine loop and returns when
// the loop resumes p. The loop reads p.state to decide what follows: a
// runnable p re-enters the run queue, fused with picking the next proc
// (runQueue.pushPop), while a blocked or finished one does not. The
// loop steps inline machines on its own stack, so a body's stack holds
// only the body's own frames. Should the drain hand p itself straight
// back, p is resumed at once — one resume that a switch does not count.
// A false yield means the run was torn down: the body unwinds.
func (p *Proc) park() {
	if !p.co.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Advance moves the process's clock forward by d and yields so the engine
// can schedule other processes. d must be non-negative.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	p.now += d
	p.doYield()
}

// AdvanceTo moves the clock to t if t is in the future, then yields.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.now {
		p.now = t
	}
	p.doYield()
}

// Block suspends the process until pred() holds for the given watch key.
// The predicate is evaluated immediately; if it already holds the
// process yields only when another process is due first — the same fast
// path doYield uses, so a satisfied wait on an idle schedule costs no
// coroutine switch. Otherwise the process sleeps until a Signal on key
// finds the predicate true, and resumes no earlier than the signalling
// write's effective time. Block returns the process's clock after
// waking.
//
// Hot paths that would otherwise allocate a closure per call should use
// BlockCond with a reusable condition value.
func (p *Proc) Block(key WatchKey, pred func() bool) Time {
	if pred() {
		if !p.keepRunning() {
			p.slowYield()
		}
		return p.now
	}
	return p.blockOn(key, condFunc(pred))
}

// BlockCond is Block with a caller-managed condition: semantics are
// identical, but the caller may reuse one Cond value across calls, so
// the steady-state block path allocates nothing.
func (p *Proc) BlockCond(key WatchKey, cond Cond) Time {
	if cond.Holds() {
		if !p.keepRunning() {
			p.slowYield()
		}
		return p.now
	}
	return p.blockOn(key, cond)
}

// blockOn registers the condition and parks until a Signal wakes it.
func (p *Proc) blockOn(key WatchKey, cond Cond) Time {
	if o := p.eng.obs; o != nil {
		o.Instant(p.id, int64(p.now), "sim", "block",
			obs.Arg{Key: "space", Val: int64(key.Space)}, obs.Arg{Key: "line", Val: int64(key.Line)})
	}
	p.state = stateBlocked
	p.eng.addWatcher(key, p, cond)
	p.slowYield()
	if o := p.eng.obs; o != nil {
		o.Instant(p.id, int64(p.now), "sim", "wake", obs.Arg{}, obs.Arg{})
	}
	return p.now
}

// unblock makes a blocked process runnable again at time wake (or its own
// clock, whichever is later) and re-queues it with the scheduler.
func (p *Proc) unblock(wake Time) {
	if p.state != stateBlocked {
		return
	}
	if wake > p.now {
		p.now = wake
	}
	p.state = stateRunnable
	p.eng.runq.push(p)
}
