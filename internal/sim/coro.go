//go:build go1.23

package sim

import (
	"errors"
	"iter"
	"sync"
)

// coro is one pulled coroutine that runs process bodies. The engine loop
// resumes it with next; a body inside it hands the control token back by
// calling yield (Proc.park). Between runs a coroutine sits on the
// process-wide idle list, parked at the bottom of serve's loop with p
// cleared, so it pins no engine: the next Run that takes it points p at
// one of its procs and the following next starts that proc's body.
type coro struct {
	p     *Proc
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
}

// idleCoros is the process-wide free list of coroutines whose last body
// finished in a clean Run. It holds the high-water mark of procs that
// ever ran at once, needs no bound (the garbage collector shrinks an
// idle coroutine's stack), and pays each coroutine's construction once
// per process instead of once per engine. It is not a sync.Pool: that
// drops entries at a collection, and a dropped coroutine's goroutine
// would stay parked forever.
var idleCoros struct {
	mu sync.Mutex
	cs []*coro
}

// errStopped unwinds a body parked in a torn-down run: its yield
// returned false because the engine called stop.
var errStopped = errors.New("sim: run torn down")

// serve is a coroutine's whole life: run the assigned proc's body, hand
// the token back, and wait for the next assignment.
func (c *coro) serve(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.runBody()
		if !yield(struct{}{}) {
			return
		}
	}
}

// attachCoros gives every proc a coroutine, idle ones first.
func (e *Engine) attachCoros() {
	i := 0
	idleCoros.mu.Lock()
	for ; i < len(e.procs) && len(idleCoros.cs) > 0; i++ {
		n := len(idleCoros.cs) - 1
		e.procs[i].co = idleCoros.cs[n]
		idleCoros.cs[n] = nil
		idleCoros.cs = idleCoros.cs[:n]
	}
	idleCoros.mu.Unlock()
	for ; i < len(e.procs); i++ {
		c := new(coro)
		c.next, c.stop = iter.Pull(c.serve)
		e.procs[i].co = c
	}
	for i := range e.procs {
		e.procs[i].co.p = &e.procs[i]
	}
}

// releaseCoros returns every proc's coroutine to the idle list after a
// clean Run: each body has finished and its coroutine is parked at the
// bottom of serve's loop.
func (e *Engine) releaseCoros() {
	idleCoros.mu.Lock()
	for i := range e.procs {
		p := &e.procs[i]
		p.co.p = nil
		idleCoros.cs = append(idleCoros.cs, p.co)
		p.co = nil
	}
	idleCoros.mu.Unlock()
}

// stopCoros ends every proc's coroutine after a panic or a deadlock: a
// body parked mid-run sees its yield return false and unwinds (Proc.park
// panics errStopped, runBody swallows it), so no goroutine is stranded
// holding the engine. Torn-down coroutines never go back on the idle
// list.
func (e *Engine) stopCoros() {
	for i := range e.procs {
		p := &e.procs[i]
		p.co.stop()
		p.co.p = nil
		p.co = nil
	}
}
