package sim

// runQueue is a binary min-heap of runnable processes keyed on (clock, id). It
// gives the scheduler O(log n) step cost instead of the former O(n) scan
// over all processes.
//
// Each heap entry carries its process's key inline, beside the pointer,
// so ordering the heap reads only the heap's own array and never a Proc:
// a sift compares keys in contiguous entries and moves entries, and no
// Proc is written while it is queued. A process's clock only changes
// while it is outside the queue (it advances its own clock while running,
// and unblock adjusts the clock before the process is pushed back), so an
// inline key never goes stale and no decrease-key operation is needed.
// Proc.queued flags membership, so the engine can assert cheaply that a
// process is in the queue iff it is runnable and not currently executing
// its step.
//
// Keys are unique (ids are), so the pop order is one total order and
// schedules are byte-identical to the former linear scan's tie-breaking.
type runQueue struct {
	heap []runEntry
}

// runEntry is a queued process and its (clock, id) key.
type runEntry struct {
	now Time
	id  int
	p   *Proc
}

// entry returns p's heap entry.
func entry(p *Proc) runEntry { return runEntry{p.now, p.id, p} }

// before reports whether key a comes before key b in (clock, id) order.
func (a *runEntry) before(b *runEntry) bool {
	return a.now < b.now || (a.now == b.now && a.id < b.id)
}

// push inserts p. It panics if p is already queued — that would mean the
// scheduler lost track of who is running.
func (q *runQueue) push(p *Proc) {
	if p.queued {
		panic("sim: process pushed onto run queue twice")
	}
	p.queued = true
	q.heap = append(q.heap, entry(p))
	q.siftUp(len(q.heap) - 1)
}

// pushPop is push(p) followed by pop(), fused: it returns the minimum
// of the queued processes and p, leaving the other side queued. When p
// does not beat the current top — always the case right after a failed
// keepRunning check — the old top comes out and p takes its root slot
// with a single siftDown, instead of a push's siftUp plus a pop's
// siftDown. The machine drain loop (Engine.nextToken) lives on this.
func (q *runQueue) pushPop(p *Proc) *Proc {
	if p.queued {
		panic("sim: process pushed onto run queue twice")
	}
	e := entry(p)
	if len(q.heap) == 0 || e.before(&q.heap[0]) {
		return p
	}
	res := q.heap[0].p
	res.queued = false
	p.queued = true
	q.heap[0] = e
	q.siftDown(0)
	return res
}

// pop removes and returns the process with the smallest (clock, id), or
// nil if the queue is empty.
func (q *runQueue) pop() *Proc {
	if len(q.heap) == 0 {
		return nil
	}
	p := q.heap[0].p
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = runEntry{}
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	p.queued = false
	return p
}

// siftUp moves the entry at i up to its place, shifting the parents it
// passes down one level each.
func (q *runQueue) siftUp(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown moves the entry at i down to its place, shifting the least
// child it passes up one level each time.
func (q *runQueue) siftDown(i int) {
	h, n := q.heap, len(q.heap)
	e := h[i]
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
