package sim

import "repro/internal/obs"

type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateBlocked
	stateDone
)

// Proc is one simulated processor: a goroutine whose execution is
// serialized by the engine in virtual-time order. All methods must be
// called from within the process's own body function.
//
// The goroutine normally exits when the body finishes and is re-spawned
// by the next Run; on a persistent engine (the chip pool's) it instead
// parks on the resume channel between runs — see spawn.
type Proc struct {
	id    int
	eng   *Engine
	now   Time
	state procState

	// heapIdx is the process's position in the engine's run queue, or
	// -1 when not queued (running, blocked, or done).
	heapIdx int

	// blockRec is the process's reusable watcher record: a process
	// blocks on at most one watch key at a time, and the entry is
	// removed from the watcher list exactly when the process wakes.
	blockRec blockedProc

	// resume delivers the control token to this process: exactly one
	// process (or the engine goroutine) holds the token at any time, and
	// whoever holds it sends here to make this process the one running.
	// The payload is the stop flag: true tells a parked persistent
	// goroutine to exit (Shutdown) and is carried in the token itself so
	// no flag read can race with the next run's spawns.
	resume chan bool

	// frames is the proc's inline state-machine stack (see Exec/Call):
	// non-empty exactly while the proc is inside a machine section, in
	// which case schedulers step the top frame directly instead of
	// resuming the goroutine. It starts on frameSlots — a protocol frame
	// with an rma op under it, the deepest any layer nests today — and
	// moves to the heap if a section nests deeper; either way the backing
	// array is retained across sections and runs, so Exec allocates
	// nothing.
	frames     []Frame
	frameSlots [2]Frame

	// wokeMachine marks that the machine blocked via MachineBlock and
	// the next runMachine entry must emit the wake instant blockOn's
	// goroutine form emits after its park.
	wokeMachine bool
}

// init prepares process id of engine e in place. A Proc points into
// itself (frames into frameSlots, watcher entries at blockRec), so it
// must never be copied afterwards.
func (p *Proc) init(e *Engine, id int) {
	*p = Proc{
		id:      id,
		eng:     e,
		state:   stateNew,
		heapIdx: -1,
		resume:  make(chan bool),
	}
	p.frames = p.frameSlots[:0]
}

// ID reports the process id (0..N-1).
func (p *Proc) ID() int { return p.id }

// Now reports the process's current virtual time.
func (p *Proc) Now() Time { return p.now }

// Engine returns the engine driving this process.
func (p *Proc) Engine() *Engine { return p.eng }

// spawn launches the process goroutine. By default it exits when the
// body finishes rather than parking for the next run: a goroutine
// blocked on a channel is a GC root that is never collected, so parked
// procs would pin their engine — and the whole chip hanging off it —
// in memory for every engine the program ever discards. Run re-spawns
// instead; the runtime recycles exited goroutines' g structs and
// stacks, so a spawn costs far less than the leak would.
//
// A persistent engine (SetPersistent, used by the bounded chip pool)
// loops back to park instead, skipping the respawn and the body's
// first-call stack growth on every pooled rerun; Shutdown wakes the
// parked goroutines with a true stop token so they can exit.
func (p *Proc) spawn() {
	go func() {
		for {
			if stop := <-p.resume; stop {
				return
			}
			p.runBody()
			if !p.eng.persistent {
				return
			}
		}
	}()
}

// runBody executes one simulation's body and releases the control token
// when it finishes (normally or by panic). The done instant, state flip
// and finished count run in a deferred function so a panicking body is
// still accounted for before the engine goroutine is notified.
func (p *Proc) runBody() {
	defer func() {
		r := recover()
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
		if r != nil {
			// Panic unwinding hands the token to the engine goroutine.
			p.eng.engch <- struct{}{}
		} else {
			p.eng.sendToken(p.eng.nextToken())
		}
	}()
	p.eng.body(p)
}

// keepRunning reports whether p — which must be the currently running
// process — is still strictly first in (clock, id) order among all
// runnable processes. If so the scheduler would hand control straight
// back, so the switch is elided entirely: same schedule, zero channel
// operations. The comparison uses the run queue's cached top key, not
// heap[0] itself, so the fast path touches no heap memory.
func (p *Proc) keepRunning() bool {
	if p.state != stateRunnable {
		return false
	}
	q := &p.eng.runq
	return len(q.heap) == 0 || p.now < q.topNow || (p.now == q.topNow && p.id < q.topID)
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
// (see yieldToken); p re-enters the run queue only if still runnable.
func (p *Proc) slowYield() {
	p.eng.switches++
	p.yieldToken(p.state == stateRunnable)
}

// yieldToken relinquishes the control token and parks until it comes
// back: the yielding process re-queues itself (if requeue — it is still
// runnable), picks the next process due a goroutine resume — stepping
// inline machines along the way, see nextToken — and sends the token
// straight to it, one channel operation per switch. If the drain hands
// p itself back (the machine procs ahead of it ran inline, or p's own
// remaining frames completed), p still holds the token and the park is
// skipped entirely.
func (p *Proc) yieldToken(requeue bool) {
	e := p.eng
	var next *Proc
	if requeue {
		next = e.tokenFrom(p)
	} else {
		next = e.nextToken()
	}
	if next == p {
		return
	}
	e.sendToken(next)
	<-p.resume
}

// sendToken passes the control token to next, or to the engine
// goroutine when there is no next process: the run queue drained (the
// engine then arbitrates termination vs deadlock) or a machine frame
// panicked.
func (e *Engine) sendToken(next *Proc) {
	if next != nil {
		e.resumes++
		next.resume <- false
	} else {
		e.engch <- struct{}{}
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
// channel operations. Otherwise the process sleeps until a Signal on key
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
