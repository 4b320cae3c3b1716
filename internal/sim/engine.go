package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alloc"
	"repro/internal/obs"
)

// Engine is a deterministic virtual-time scheduler for a fixed set of
// processes. It is single-threaded from the simulation's point of view:
// although each process body runs on a coroutine of its own, exactly one
// runs at any instant, and the scheduler always picks the runnable
// process with the smallest virtual clock (ties broken by process id).
// Writes to simulated memory are therefore applied in global time order.
//
// One engine loop, on the goroutine that called Run, holds the control
// token between bodies: a body that yields switches back to the loop,
// which re-queues it and pops the next process in one fused heap
// operation and resumes that process's coroutine — two coroutine
// switches, no channel and no trip through the Go scheduler. Protocol
// sections written as Frames (see Proc.Exec) need no resume at all: the
// loop steps them inline, on its own stack, while picking the next
// process. Coroutines come from a process-wide idle list (see coro), so
// a Run spawns no goroutine once the list holds enough of them.
type Engine struct {
	// procs holds every process by value: one backing array per engine,
	// with each process's watcher record and first frame-stack slots
	// inline, so building an engine costs a handful of allocations
	// whatever its process count.
	procs     []Proc
	started   bool
	completed bool // last Run finished cleanly; required by Reset
	finished  int

	// body is the current Run's process body; each proc's coroutine
	// reads it when the proc first runs.
	body func(*Proc)

	// runq holds every runnable process except the one currently
	// executing, keyed on (clock, id). The heap is maintained
	// incrementally: start and unblock push, the scheduler pops, and a
	// process that blocks or finishes simply is not pushed back.
	runq runQueue

	// watchers lists every blocked process with the key it waits on,
	// bucketed by the key's space so a signal scans only the waiters of
	// the space it touches — in practice 0 or 1 entries, since only an
	// MPB's owning core ever waits on it. Spaces 0..N-1 (one per
	// process: the MPB spaces) have a bucket each, and bucket N is shared
	// by every other space (rma's interrupt keys), so the table's size
	// follows the process count, not the largest space id. Every bucket
	// starts as a one-entry window of a single engine-wide backing array
	// and only a bucket that ever holds two waiters at once reallocates.
	// At most one entry exists per process across all buckets, so the
	// total never exceeds N; within a bucket registration order is
	// preserved on removal, so wake order is registration order per key.
	// Bucket arrays are retained across runs, so the steady-state block
	// path allocates nothing.
	watchers [][]watcherEntry
	// nWatchers counts entries across all watcher buckets; the signal
	// fast path bails on zero without touching the buckets at all.
	nWatchers int

	// obs, when non-nil, receives scheduling events (block/wake/done
	// instants) and supplies deadlock context. Nil means tracing is off;
	// every emission site guards on that.
	obs *obs.Recorder

	// switches counts slow-path context switches (yields that could not
	// take the keepRunning fast path) across the engine's lifetime. The
	// count is a deterministic function of the workload — the committed
	// digests pin it — and the number is the scheduler's wall-clock cost
	// driver, so benchmarks report it.
	switches int64
	// resumes counts coroutine resumes by the engine loop: each hands
	// the control token to a body, which costs one coroutine switch there
	// and one back. A switch whose next proc is stepped inline costs
	// none; a drain that hands the yielding proc straight back costs one
	// that no switch counts.
	resumes int64

	panicVal any // re-panicked on Run if a process panicked
}

// Switches reports the cumulative number of slow-path context switches
// (not elided by the same-proc fast path) since the engine was created.
// Reset does not clear it; callers diff before/after a Run.
func (e *Engine) Switches() int64 { return e.switches }

// Resumes reports the cumulative number of times the engine loop resumed
// a process's body coroutine since the engine was created — the
// coroutine switches the schedule cost, as opposed to the switches
// stepped inline. Like Switches, it is deterministic and Reset does not
// clear it.
func (e *Engine) Resumes() int64 { return e.resumes }

// WatchKey identifies a condition a process can block on. Memory
// implementations signal the key when a write may have changed the
// condition's outcome.
type WatchKey struct {
	// Space distinguishes address spaces (e.g. one per MPB).
	Space int
	// Line is the cache-line index within the space.
	Line int
}

// Cond is a block condition evaluated on Signal. Implementations that
// are reused across blocks (e.g. a buffer embedded in the waiting
// structure) keep the steady-state block path allocation-free; Block
// wraps plain closures for callers that don't care.
type Cond interface {
	// Holds reports whether the condition is now satisfied.
	Holds() bool
}

// condFunc adapts a plain predicate closure to Cond.
type condFunc func() bool

func (f condFunc) Holds() bool { return f() }

type blockedProc struct {
	p    *Proc
	cond Cond
	// wake is the earliest virtual time the process may resume
	// (typically the effective time of the write that satisfied the
	// predicate).
	wake Time
}

// watcherEntry pairs a blocked process's record with its watch key.
type watcherEntry struct {
	key WatchKey
	b   *blockedProc
}

// NewEngine creates an engine with n processes whose ids are 0..n-1.
func NewEngine(n int) *Engine {
	e := &Engine{
		procs:    alloc.Slice[Proc](n),
		watchers: make([][]watcherEntry, n+1),
	}
	e.runq.heap = make([]*Proc, 0, n)
	slots := make([]watcherEntry, n+1)
	for i := range e.watchers {
		e.watchers[i] = slots[i : i : i+1]
	}
	for i := range e.procs {
		e.procs[i].init(e, i)
	}
	return e
}

// N reports the number of processes.
func (e *Engine) N() int { return len(e.procs) }

// SetObserver attaches a timeline recorder (nil detaches). Call before
// Run; the engine and its processes emit scheduling instants to it.
func (e *Engine) SetObserver(r *obs.Recorder) { e.obs = r }

// Proc returns process i.
func (e *Engine) Proc(i int) *Proc { return &e.procs[i] }

// Run executes body(p) on every process concurrently in virtual time and
// returns when all processes have finished. It panics if the simulation
// deadlocks (some process blocked forever) or if any process panics;
// either way every body still parked is unwound first, so a torn-down
// run strands no goroutine.
//
// After a clean Run, Reset re-arms the engine for another; calling Run
// again without Reset panics.
func (e *Engine) Run(body func(p *Proc)) {
	if e.started {
		panic("sim: Engine.Run called twice; Reset the engine (or create a new one) between runs")
	}
	e.started = true
	e.body = body
	e.attachCoros()
	for i := range e.procs {
		p := &e.procs[i]
		p.state = stateRunnable
		e.runq.push(p)
	}
	e.loop()
	e.body = nil
	if r := e.panicVal; r != nil {
		e.stopCoros()
		panic(r)
	}
	e.releaseCoros()
	e.completed = true
}

// Reset re-arms a cleanly completed engine for another Run, keeping
// every warm structure — the run-queue array, the frame stacks and the
// per-space watcher slices (drained in place) — so repeated simulations
// allocate nothing in the scheduler; the next Run takes its coroutines
// back from the idle list. It reports false (and does nothing) if the
// engine is mid-run or its last Run panicked: such an engine's state is
// wherever the panic left it, and it must be abandoned.
func (e *Engine) Reset() bool {
	if e.started && !e.completed {
		return false
	}
	e.started = false
	e.completed = false
	e.finished = 0
	e.panicVal = nil
	e.obs = nil
	for s, ws := range e.watchers {
		for i := range ws {
			ws[i] = watcherEntry{}
		}
		e.watchers[s] = ws[:0]
	}
	e.nWatchers = 0
	for i := range e.procs {
		p := &e.procs[i]
		p.now = 0
		p.state = stateNew
		p.heapIdx = -1
		p.blockRec.cond = nil
		p.blockRec.wake = 0
		for i := range p.frames {
			p.frames[i] = nil
		}
		p.frames = p.frames[:0]
		p.wokeMachine = false
	}
	return true
}

// loop drives the scheduler until every process has finished. It picks
// the next process due a resume — stepping inline machines on this
// goroutine's stack along the way (drainToken) — and resumes its
// coroutine, which runs the body until it yields the token back or
// finishes. A proc that yielded still runnable re-enters the queue fused
// with the next pop. The loop stops at termination, at a panic (a body's
// or a frame's, recorded in panicVal) or at a deadlock, which it records
// as the panic Run raises once every parked body is unwound.
func (e *Engine) loop() {
	p := e.nextToken()
	for e.panicVal == nil {
		if p == nil {
			if e.finished < len(e.procs) {
				e.panicVal = e.deadlockReport()
			}
			return
		}
		e.resumes++
		p.co.next()
		if e.panicVal != nil {
			return
		}
		if p.state == stateRunnable {
			p = e.tokenFrom(p)
		} else {
			p = e.nextToken()
		}
	}
}

// Signal re-evaluates every process blocked on key. Processes whose
// predicate now holds become runnable no earlier than at time at.
// Memory implementations call this after applying a write.
func (e *Engine) Signal(key WatchKey, at Time) {
	if e.nWatchers == 0 {
		return
	}
	e.signalScan(key.Space, key.Line, 1, at, 0)
}

// SignalRange signals n consecutive line keys of one space, where line
// line0+i's write becomes effective at eff0+i·stride — the watcher
// fan-out of one bulk write extent, coalesced into a single scan of the
// blocked-process list. Each blocked process is woken at most once (a
// process blocks on a single key), and a wide extent costs one pass
// regardless of n — O(1) when nobody is waiting at all.
func (e *Engine) SignalRange(space, line0, n int, eff0 Time, stride Duration) {
	if e.nWatchers == 0 {
		return
	}
	e.signalScan(space, line0, n, eff0, stride)
}

// signalScan wakes every process blocked on a key inside the signalled
// line range whose condition now holds, compacting the space's watcher
// bucket in place (registration order preserved).
func (e *Engine) signalScan(space, line0, n int, eff0 Time, stride Duration) {
	bucket := e.bucketOf(space)
	ws := e.watchers[bucket]
	keep := 0
	for idx, w := range ws {
		if w.key.Space == space && w.key.Line >= line0 && w.key.Line < line0+n {
			b := w.b
			if b.cond.Holds() {
				at := eff0 + Duration(w.key.Line-line0)*stride
				if b.wake < at {
					b.wake = at
				}
				b.cond = nil // release the condition; the record is reused
				b.p.unblock(b.wake)
				continue
			}
		}
		if keep != idx {
			// Compact in place only once a wake opened a gap; until
			// then the scan is read-only — the common no-wake signal
			// never writes the list.
			ws[keep] = w
		}
		keep++
	}
	if keep == len(ws) {
		return
	}
	e.nWatchers -= len(ws) - keep
	for i := keep; i < len(ws); i++ {
		ws[i] = watcherEntry{}
	}
	e.watchers[bucket] = ws[:keep]
}

// bucketOf maps a watch key's space to its watcher bucket: the space's
// own for 0..N-1, the shared last bucket for every other space.
func (e *Engine) bucketOf(space int) int {
	if n := len(e.procs); space < 0 || space >= n {
		return n
	}
	return space
}

// addWatcher registers p as blocked on key with the given condition. A
// process blocks on at most one key at a time and its watcher entry is
// removed exactly when it is woken, so the record embedded in the Proc
// can be reused — no allocation per block once the list has grown.
func (e *Engine) addWatcher(key WatchKey, p *Proc, cond Cond) {
	p.blockRec.p = p
	p.blockRec.cond = cond
	p.blockRec.wake = p.now
	b := e.bucketOf(key.Space)
	e.watchers[b] = append(e.watchers[b], watcherEntry{key: key, b: &p.blockRec})
	e.nWatchers++
}

// deadlockReport describes all blocked processes, for Run to panic with.
// When tracing is on, the message includes each stuck process's last few
// timeline events, so the report says what every blocked core was doing
// — not just that it was blocked.
func (e *Engine) deadlockReport() string {
	var stuck []int
	for i := range e.procs {
		if p := &e.procs[i]; p.state == stateBlocked {
			stuck = append(stuck, p.id)
		}
	}
	sort.Ints(stuck)
	msg := fmt.Sprintf("sim: deadlock — %d/%d processes finished, blocked procs: %v",
		e.finished, len(e.procs), stuck)
	if e.obs != nil {
		var sb strings.Builder
		sb.WriteString(msg)
		for _, id := range stuck {
			fmt.Fprintf(&sb, "\n  proc %d recent events:", id)
			tail := e.obs.Tail(id, deadlockTailEvents)
			if len(tail) == 0 {
				sb.WriteString(" (none recorded)")
			}
			for _, ev := range tail {
				fmt.Fprintf(&sb, "\n    %s", ev)
			}
		}
		msg = sb.String()
	}
	return msg
}

// deadlockTailEvents is how many recent events per stuck process a
// deadlock report includes when tracing is on.
const deadlockTailEvents = 8
