package occoll

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The progress engine.
//
// A non-blocking collective is issued with IBcast/IReduce/IAllReduce/
// IScatter/IGather/IAllGather, which returns a Request handle. Issuing
// validates the arguments, claims the next MPB lane round-robin, zeroes
// the lane's flags, runs the begin barrier, and then starts the lane
// protocol — the same pipelined k-ary state machine the blocking
// operation runs — but stops it at the first flag wait whose flag has not
// arrived yet instead of blocking the simulated core.
//
// The stopped protocol is advanced only when the core calls Progress,
// Request.Test or Request.Wait (MPI-style: communication progresses
// inside library calls). Progress and Test probe the pending flag with
// rma.ProbeFlagGE — a failed probe costs no virtual time, a successful
// one charges the same single C^mpb_r(1) poll read the blocking path
// charges — and let the protocol run until its next unsatisfied wait.
// Wait lets the protocol's waits run as they are — rma's flag wait parks
// the simulated proc on the engine's run queue (internal/sim's indexed
// heap) until a peer's flag write signals the watched MPB line; the
// blocking collectives are exactly issue + Wait, which is why their
// simulated timings are byte-identical to the pre-engine
// run-to-completion loops.
//
// Mechanically a lane protocol is data-independent — every loop bound
// and branch depends only on the tree, the message size and the Config,
// never on a value read from an MPB — so it is written as a chain of
// step functions, each appending the RMA ops of one pipeline step to the
// lane's step program through rma's emitters (internal/rma/prog.go) —
// the same way rcce and OC-Bcast are written. Those run to completion
// under rma.Core.Run; a Request is the one other sim.Frame that issues
// a program's instructions (rma.Core.CallNext), because it must be able
// to stop: it adds only the probing wait and the chaining of phases.
// Stopping at a wait is returning from Step with the program still on
// it.

// stepFn appends the instructions of pipeline step `step` (0, 1, …) of
// one protocol phase to r.lane's program and reports whether the phase
// has more steps. A phase with nothing to do on this core (a leaf's
// down-stream, the root's up-stream) emits nothing and reports false.
type stepFn func(r *Request, step int) (more bool)

// protocol is one collective's static program: its name and the phases
// that run back to back on the lane (fused collectives chain two or
// three — reduce→bcast, recv→streamDown, gatherRecv→gatherSend→bcast).
type protocol struct {
	name   string
	phases []stepFn
}

// Request is the handle of one in-flight non-blocking collective. A
// request must be completed — observed by exactly one successful Test or
// one Wait — before the issuing core's body returns; the handle is dead
// afterwards, and reusing it panics (see Wait and Test).
type Request struct {
	x     *Collectives
	proto *protocol
	lane  *lane

	// The protocol's arguments, carried in the frame (instead of a
	// per-issue closure) so a warmed issue loop allocates nothing here.
	tree  core.Tree
	addr  int
	lines int

	// phase/step name the next pipeline step to emit. While the request
	// is stopped on a flag (not done, not being Exec'ed), that wait is
	// lane.prog's next instruction.
	phase, step int32
	// blocking selects how waits behave during the current Exec: park
	// the simulated proc (Wait, lane reuse) or probe and stop
	// (issue/Test/Progress).
	blocking bool

	done     bool // protocol locally complete (lane drained)
	consumed bool // completion observed by Wait or a true Test

	// obsID is the request's async-span id when tracing is on (0 = off):
	// the span runs from issue to protocol completion, overlapping other
	// requests on the same core's track.
	obsID int64
}

// Op reports the name of the collective the request was issued by (e.g.
// "IAllReduce"), for error messages and tests.
func (r *Request) Op() string { return r.proto.name }

// Lane reports the MPB lane the request occupies.
func (r *Request) Lane() int { return r.lane.idx }

// Completed reports whether Wait or a true Test has completed the request.
func (r *Request) Completed() bool { return r.consumed }

// issue starts a non-blocking collective: argument validation, lane
// claim, begin (flag zeroing + barrier), then the protocol, eagerly
// advanced to its first unsatisfied flag wait so communication starts at
// issue time.
func (x *Collectives) issue(proto *protocol, root, addr, lines int, rop ReduceOp) *Request {
	if x.finished {
		panic(fmt.Sprintf("occoll: %s issued after its core finished", proto.name))
	}
	if !x.checkArgs(root, addr, lines) {
		// Trivial 1-core chip: the collective is a completed no-op.
		return &Request{x: x, proto: proto, done: true}
	}
	l := &x.lanes[int(x.nissued)%len(x.lanes)]
	x.nissued++
	l.issues++
	if l.req != nil && l.req.lane == l && !l.req.done {
		// The lane's previous collective (not a recycled frame reissued on
		// another lane) is still in flight: drive it to local completion
		// before reusing the lane. Deterministic and symmetric — every core
		// drives its own previous request at the same issue index.
		l.req.exec(true)
	}
	r := x.newRequest()
	r.x, r.proto, r.lane = x, proto, l
	r.addr, r.lines = addr, lines
	if o := x.core.Obs(); o != nil {
		r.obsID = o.AsyncID()
		o.AsyncBegin(r.obsID, x.core.ID(), int64(x.core.Now()), "occoll", proto.name,
			obs.Arg{Key: "lane", Val: int64(l.idx)}, obs.Arg{Key: "lines", Val: int64(lines)})
	}
	l.req = r
	// One buffer per lane that is ever used, sized for the longest step
	// (reduceUp's: stage, four ops per child, hand up, drain).
	l.prog.Grow(4*x.cfg.K + 4)
	l.prog.Reset()
	l.prog.Fold = rop
	r.tree = l.begin(root)
	x.compactReqs() // keep the list bounded by in-flight requests
	x.reqs = x.store.lists.Append(x.reqs, r)
	r.exec(false)
	if o := x.core.Obs(); o != nil {
		o.Counter(x.core.ID(), int64(x.core.Now()), "occoll", "inflight", int64(x.Outstanding()))
	}
	return r
}

// newRequest returns a recycled request frame when one is free, else a
// fresh one from the store; either way zeroed. The caller fills
// x/proto/lane.
func (x *Collectives) newRequest() *Request {
	if n := len(x.freeReqs); n > 0 {
		r := x.freeReqs[n-1]
		x.freeReqs[n-1] = nil
		x.freeReqs = x.freeReqs[:n-1]
		*r = Request{}
		return r
	}
	return &x.store.frames.Take(1)[0]
}

// reqFreeListMax bounds the free list; a serial issue/Wait loop keeps it
// at one or two entries, so anything beyond a few lanes' worth is churn
// from an unusual burst, and is dropped.
const reqFreeListMax = 16

// compactReqs drops fully finished requests — protocol done AND handle
// consumed — from the outstanding list, bounding it by the number of
// requests still in flight or awaiting their Wait/Test, and recycles
// the dropped frames. Done-but-unconsumed requests are kept so Finish
// can flag them as leaked.
//
// A recycled frame means a stale handle kept across a later issue
// aliases the new request, so the double-completion panic in
// checkUsable is only guaranteed until the core's next issue; the
// request contract (a handle is dead after its Wait or true Test)
// already forbids such use.
func (x *Collectives) compactReqs() {
	live := x.reqs[:0]
	for _, r := range x.reqs {
		if !r.done || !r.consumed {
			live = append(live, r)
		} else if len(x.freeReqs) < reqFreeListMax {
			x.freeReqs = x.store.lists.Append(x.freeReqs, r)
		}
	}
	for i := len(live); i < len(x.reqs); i++ {
		x.reqs[i] = nil
	}
	x.reqs = live
}

// exec runs the protocol as a machine section of the core's body until
// it completes or — when not blocking — stops on a flag that has not
// arrived. A panic inside the protocol (a programming error or a
// simulated deadlock being torn down) unwinds like any frame's.
func (r *Request) exec(blocking bool) {
	r.blocking = blocking
	r.x.core.Exec(r)
}

// Step issues the lane program's instructions, each as an rma child
// frame, and refills the exhausted program with the protocol's next
// pipeline step (one that emits nothing is skipped). The protocol is
// complete when its last phase has no more steps.
func (r *Request) Step(*sim.Proc) sim.StepStatus {
	l, c := r.lane, r.x.core
	for l.prog.Done() {
		if int(r.phase) == len(r.proto.phases) {
			r.complete()
			return sim.StepDone
		}
		l.prog.Reset()
		if r.proto.phases[r.phase](r, int(r.step)) {
			r.step++
		} else {
			r.phase, r.step = r.phase+1, 0
		}
	}
	if line, seq, ok := l.prog.PendingWait(); ok && !r.blocking {
		if !c.ProbeFlagGE(line, seq) {
			return sim.StepDone // stopped, not done: the program stays on the wait
		}
		l.prog.Polled()
	}
	return c.CallNext(&l.prog)
}

// complete marks the protocol locally complete and closes its span.
func (r *Request) complete() {
	r.done = true
	if o := r.x.core.Obs(); o != nil && r.obsID != 0 {
		now := int64(r.x.core.Now())
		o.AsyncEnd(r.obsID, r.x.core.ID(), now, "occoll", r.proto.name)
		o.Counter(r.x.core.ID(), now, "occoll", "inflight", int64(r.x.Outstanding()))
	}
}

// Wait drives the request's protocol to completion, blocking the
// simulated core on each pending flag (the proc parks on the scheduler
// and unparks when the flag write arrives), and consumes the handle.
// Waiting again — or after a true Test — panics: the handle is dead and a
// second completion would desynchronize the lane's flag sequence.
//
// Wait progresses only THIS request (a simulated proc can park on one
// flag line at a time), so with several requests in flight all cores
// must Wait them in the same order — mismatched completion orders
// deadlock the chip, exactly like mismatched blocking collectives, and
// the simulator reports it as a deadlock panic. Cores that cannot
// guarantee a symmetric order should poll with Test/Progress (which
// advance every outstanding request) and only Wait the last one.
func (r *Request) Wait() {
	r.checkUsable("Wait")
	if !r.done {
		r.exec(true)
	}
	r.consumed = true
}

// Test advances every outstanding request of the issuing core without
// blocking (one Progress pass) and reports whether this request has
// completed, consuming the handle if so. Testing a handle already
// consumed by Wait or an earlier true Test panics.
func (r *Request) Test() bool {
	r.checkUsable("Test")
	if !r.done {
		r.x.Progress()
	}
	if r.done {
		r.consumed = true
		return true
	}
	return false
}

// checkUsable panics descriptively on the request-lifecycle misuses that
// would otherwise corrupt MPB state: completing a handle twice, or
// touching one after the issuing core's body returned.
func (r *Request) checkUsable(method string) {
	if r.x != nil && r.x.finished {
		panic(fmt.Sprintf("occoll: %s on %s request after its core finished", method, r.Op()))
	}
	if r.consumed {
		panic(fmt.Sprintf("occoll: %s on completed %s request (already observed by Wait or Test)", method, r.Op()))
	}
}

// Progress advances every outstanding request as far as it can go without
// blocking: each stopped protocol re-probes its pending flag and, when the
// flag has arrived, runs until its next unsatisfied wait (or completion).
// Progress never blocks and — when nothing has arrived — costs no
// simulated time, so a core can interleave it with Compute slices to
// overlap communication with computation. Note that Progress alone never
// advances the virtual clock: a polling loop must advance time (compute)
// or Wait, or no peer's flag write can ever become visible.
func (x *Collectives) Progress() {
	if x.finished {
		panic("occoll: Progress after its core finished")
	}
	advanced := false
	for _, r := range x.reqs {
		if r.done {
			advanced = advanced || r.consumed
			continue
		}
		// Every live request is stopped on its program's pending wait;
		// probe the flag for free before entering the frame, which
		// re-probes and charges the successful poll read.
		line, seq, _ := r.lane.prog.PendingWait()
		if !x.core.ProbeFlagGE(line, seq) {
			continue
		}
		if o := x.core.Obs(); o != nil {
			o.Instant(x.core.ID(), int64(x.core.Now()), "occoll", "progress.resume",
				obs.Arg{Key: "lane", Val: int64(r.lane.idx)}, obs.Arg{Key: "line", Val: int64(line)})
		}
		r.exec(false)
		advanced = advanced || r.done
	}
	if advanced {
		x.compactReqs()
	}
}

// Requests returns the core's tracked requests in issue order: every
// request not yet completed by Wait or a true Test, and completed ones
// until the next issue drops them. The slice is the engine's own.
func (x *Collectives) Requests() []*Request { return x.reqs }

// Outstanding reports how many issued requests have not completed their
// protocol yet.
func (x *Collectives) Outstanding() int {
	n := 0
	for _, r := range x.reqs {
		if !r.done {
			n++
		}
	}
	return n
}

// Finish marks the core's body function as returned and enforces the
// request contract: every issued request must have been consumed by one
// Wait or one true Test. Leaking an in-flight request would leave peers
// waiting on this core's lane flags with nobody left to progress the
// protocol, and a completed-but-unobserved one is a latent bug, so
// Finish panics descriptively instead of letting the chip corrupt MPB
// state or deadlock obscurely. A stopped request is plain data — nothing
// to unwind, whether or not Finish is ever reached. The public API calls
// it when the SPMD body returns; after Finish, any use of the engine or
// a request handle panics.
func (x *Collectives) Finish() {
	x.finished = true
	var leaked []string
	for _, r := range x.reqs {
		if !r.consumed {
			leaked = append(leaked, r.Op())
		}
	}
	if len(leaked) > 0 {
		panic(fmt.Sprintf("occoll: core %d finished with %d unconsumed non-blocking request(s) %v: complete every request with Wait or a true Test before returning",
			x.core.ID(), len(leaked), leaked))
	}
}
