package serve

import (
	"fmt"

	"repro/internal/scc"
	"repro/internal/workload"
)

// The scheduler replica. Every core of the chip runs Run with the same
// configuration, streams and layout; the replicas make identical
// decisions because every input to a decision is common knowledge —
// stream data, replica state, and the per-round epoch agreed on through
// Runner.SyncMaxUs. The per-core Runner is the only simulator-facing
// surface; everything else is plain deterministic Go.

// Runner is the per-core surface a scheduler replica drives. The public
// API adapts *ocbcast.Core to it (System.Serve), the harness adapts a
// pooled chip's algsel environment, and the property tests use an
// in-memory fake.
type Runner interface {
	// ID reports the core id (replica 0 is the one whose counters the
	// caller collects).
	ID() int
	// NowUs reports the core's virtual clock in microseconds.
	NowUs() float64
	// Compute advances the core's clock by us microseconds of local
	// work.
	Compute(us float64)
	// SyncMaxUs runs a chip-wide max-reduction of the cores' clocks and
	// returns the agreed maximum in microseconds — the round epoch. It
	// is the runtime's only source of time for decisions: a real
	// control-plane collective, so it costs simulated time and returns
	// the same value on every core.
	SyncMaxUs() float64
	// Run executes one batch as a blocking collective: op at byte
	// address addr, `lines` cache lines (the per-core block for the
	// block ops), scratch same-size staging the two-sided reductions may
	// clobber.
	Run(op string, root, addr, scratch, lines int)
	// Issue starts one batch on the non-blocking progress-engine path.
	Issue(op string, root, addr, lines int) Pending
}

// Pending is an in-flight non-blocking batch (occoll.Request satisfies
// it).
type Pending interface {
	// Test advances the protocol without blocking; true means complete.
	Test() bool
	// Wait blocks until the batch's collective completes.
	Wait()
}

// Hooks are optional per-event callbacks for observability. The public
// adapter installs them on core 0 only, emitting internal/obs spans;
// nil hooks (or nil fields) cost one comparison per site.
type Hooks struct {
	// Epoch fires after each round's clock sync with the agreed epoch
	// and the post-admission backlog.
	Epoch func(round int, epochUs float64, queued int)
	// Queue fires per tenant after each round's admission with the
	// tenant's queue depth.
	Queue func(tenant, depth int)
	// BatchBegin fires when batch seq (1-based dispatch order) starts;
	// BatchEnd fires when its collective completes.
	BatchBegin func(seq int, op string, members, lines int)
	BatchEnd   func(seq int)
}

// Layout fixes where the runtime stages batch payloads in private
// memory. Batches rotate through Slots equal regions — a region is
// never reused while its batch could still be in flight — followed by
// one scratch region (the two-sided reductions' staging) and one
// control cache line (the SyncMaxUs clock word).
type Layout struct {
	// N is the chip's core count the layout was computed for.
	N int
	// SlotBytes is one batch region: the largest payload any batch can
	// address (block ops hold N per-core blocks), cache-line aligned.
	SlotBytes int
	// Slots is the number of rotating batch regions.
	Slots int
	// ScratchAddr is the shared scratch region's base; it is SlotBytes
	// long. CtrlAddr is the control line's base.
	ScratchAddr, CtrlAddr int
}

// LayoutFor computes the serving layout of a valid tenant mix on an
// n-core chip. Region sizing is worst-case over what batching can
// build: a batch's summed payload is bounded by max(largest single
// request, MaxBatchLines) — an oversized request dispatches alone but
// still needs its region — so the region is the largest op-table region
// (workload.Op.Region) of any request at that bound. Private memory is
// demand-paged, so an over-generous region costs address space, not
// bytes.
func LayoutFor(cfg Config, streams []Stream, n int) Layout {
	batchCap := cfg.maxBatchLines()
	region := 1
	for _, s := range streams {
		for _, r := range s.Reqs {
			region = max(region, workload.OpOf(r.Op).Region(n, max(r.Lines, batchCap)))
		}
	}
	slot := region * scc.CacheLine
	// At most `lanes` batches are in flight at once; one spare region
	// keeps a full rotation of margin.
	slots := cfg.lanes() + 2
	return Layout{
		N:           n,
		SlotBytes:   slot,
		Slots:       slots,
		ScratchAddr: slots * slot,
		CtrlAddr:    (slots + 1) * slot,
	}
}

// SlotAddr reports the base address of the i-th dispatched batch's
// payload region.
func (l Layout) SlotAddr(i int) int { return (i % l.Slots) * l.SlotBytes }

// TotalBytes reports the layout's private-memory address span.
func (l Layout) TotalBytes() int { return (l.Slots+1)*l.SlotBytes + scc.CacheLine }

// Board is the cross-core completion record: DoneUs[id] is the latest
// completion clock any core observed for global request id (the
// chip-wide completion time). Cores write it with a read-modify-write
// max; the engine serializes cores with happens-before on every switch,
// so the shared writes are race-free and order-independent.
type Board struct {
	// DoneUs is indexed by global request id (streams concatenated in
	// order); zero means not completed.
	DoneUs []float64
}

// NewBoard sizes a board for a tenant mix.
func NewBoard(streams []Stream) *Board {
	total := 0
	for _, s := range streams {
		total += len(s.Reqs)
	}
	return &Board{DoneUs: make([]float64, total)}
}

// Per-request lifecycle states.
const (
	stPending  uint8 = iota // not yet arrived/admitted
	stQueued                // admitted, waiting in its tenant queue
	stRejected              // bounced off a full queue (final)
	stDone                  // collective completed
)

// strideUnit is the stride numerator: a weight-w tenant's pass advances
// by strideUnit/w per dispatched request, so it is at least 1 even at
// MaxWeight.
const strideUnit = MaxWeight

// idleSlackUs is the small overshoot idle rounds advance past the next
// arrival, guaranteeing the following epoch admits it even after
// float-to-picosecond truncation.
const idleSlackUs = 1e-3

// ring is a fixed-capacity FIFO of global request ids.
type ring struct {
	buf     []int32
	head, n int
}

func (r *ring) push(v int32) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring) peek() int32 { return r.buf[r.head] }

func (r *ring) pop() int32 {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// batch is one coalesced collective: compatible requests whose payloads
// concatenate into a single op of `lines` total cache lines.
type batch struct {
	op          string
	root        int
	lines       int
	seq         int
	members     []int32
	memberLines int
}

// Sched is one core's scheduler replica. Its exported surface is what
// the caller collects after the run (Collect); all scheduling state is
// private. Replicas on different cores hold byte-identical state at
// every round boundary.
type Sched struct {
	cfg     Config
	streams []Stream
	l       Layout

	// Static stream geometry: global id offsets, absolute arrival
	// clocks (prefix sums of GapUs), tenant of each global id.
	off      []int
	arrival  [][]float64
	tenantOf []int32

	// Admission and queueing state.
	next  []int // per tenant: first stream index not yet arrived
	q     []ring
	nq    int // total queued across tenants
	state []uint8

	// Fairness state. Round-robin keeps a rotating pointer; the
	// weighted policy is stride scheduling: each tenant carries a
	// virtual pass, the backlogged tenant with the least pass wins the
	// next batch slot, and every request it dispatches advances its pass
	// by strideUnit/weight — so dispatch shares converge to the weights,
	// and a waiting tenant's pass is eventually the minimum (everyone
	// else's grows with every grant), which rules out starvation. vtime
	// tracks the winning pass so a newly backlogged tenant rejoins at
	// the current virtual time instead of monopolizing with a stale one.
	pass   []int64
	vtime  int64
	served []bool
	rrPos  int

	// Reusable per-round dispatch scratch.
	batches []batch
	pend    []Pending

	// Counters (see Collect).
	rounds, idleRounds  int
	nbatches, batchReqs int
	dispatched          int
	admitted, rejected  []int
	starved             []int
	tenantReqs          []int
	doneOrder           []int32
	endClockUs          float64
}

// newSched builds a replica. Every allocation the runtime ever makes
// happens here; the serving loop itself is allocation-free (the
// regression suite pins it).
func newSched(cfg Config, streams []Stream, l Layout) *Sched {
	T := len(streams)
	s := &Sched{
		cfg:        cfg,
		streams:    streams,
		l:          l,
		off:        make([]int, T),
		arrival:    make([][]float64, T),
		next:       make([]int, T),
		q:          make([]ring, T),
		pass:       make([]int64, T),
		served:     make([]bool, T),
		batches:    make([]batch, cfg.lanes()),
		pend:       make([]Pending, cfg.lanes()),
		admitted:   make([]int, T),
		rejected:   make([]int, T),
		starved:    make([]int, T),
		tenantReqs: make([]int, T),
	}
	total := 0
	for t, st := range streams {
		s.off[t] = total
		total += len(st.Reqs)
	}
	s.state = make([]uint8, total)
	s.tenantOf = make([]int32, total)
	s.doneOrder = make([]int32, 0, total)
	bound := cfg.queueBound()
	for t, st := range streams {
		a := make([]float64, len(st.Reqs))
		clock := 0.0
		for i, r := range st.Reqs {
			clock += r.GapUs
			a[i] = clock
		}
		s.arrival[t] = a
		s.q[t] = ring{buf: make([]int32, min(bound, len(st.Reqs)))}
		for i := range st.Reqs {
			s.tenantOf[s.off[t]+i] = int32(t)
		}
	}
	mb := cfg.maxBatch()
	for i := range s.batches {
		s.batches[i].members = make([]int32, 0, mb)
	}
	return s
}

// Run executes the serving loop on this core. Every core of the chip
// must call it with the same configuration, streams, layout and board
// (SPMD, like the collectives themselves); hooks may differ per core
// (the public adapter traces on core 0 only). The loop per round:
//
//  1. agree on the epoch — a max-allreduce of the cores' clocks;
//  2. admit every arrival at or before the epoch, tenant by tenant in
//     stream order, rejecting onto the floor when a queue is full;
//  3. if nothing is queued: exit when the streams are exhausted, else
//     advance every core to just past the next arrival and retry;
//  4. select up to Lanes batches by the fairness policy, coalescing
//     compatible requests up to the batch caps;
//  5. dispatch — one batch runs blocking, several issue non-blocking
//     over distinct progress-engine lanes and are waited in issue
//     order — and record completion clocks on the board.
//
// The caller collects metrics from any one replica plus the shared
// board (Collect); replica 0 is the convention.
func Run(r Runner, cfg Config, streams []Stream, l Layout, b *Board, h *Hooks) *Sched {
	s := newSched(cfg, streams, l)
	for {
		epoch := r.SyncMaxUs()
		s.admit(epoch)
		if h != nil {
			if h.Epoch != nil {
				h.Epoch(s.rounds+s.idleRounds, epoch, s.nq)
			}
			if h.Queue != nil {
				for t := range s.q {
					h.Queue(t, s.q[t].n)
				}
			}
		}
		if s.nq == 0 {
			next, ok := s.nextArrival()
			if !ok {
				break
			}
			s.idleRounds++
			if d := next + idleSlackUs - r.NowUs(); d > 0 {
				r.Compute(d)
			}
			continue
		}
		nb := s.selectBatches()
		s.dispatch(r, b, h, nb)
		s.rounds++
	}
	s.endClockUs = r.NowUs()
	return s
}

// admit moves every arrival at or before the epoch into its tenant's
// queue, bouncing arrivals that find the queue full.
func (s *Sched) admit(epoch float64) {
	bound := s.cfg.queueBound()
	for t := range s.streams {
		reqs := s.streams[t].Reqs
		for s.next[t] < len(reqs) && s.arrival[t][s.next[t]] <= epoch {
			id := int32(s.off[t] + s.next[t])
			if s.q[t].n < bound {
				if s.q[t].n == 0 && s.pass[t] < s.vtime {
					// Rejoining the backlog: start at the current
					// virtual time, keeping idle history worthless.
					s.pass[t] = s.vtime
				}
				s.q[t].push(id)
				s.state[id] = stQueued
				s.admitted[t]++
				s.nq++
			} else {
				s.state[id] = stRejected
				s.rejected[t]++
			}
			s.next[t]++
		}
	}
}

// nextArrival reports the earliest not-yet-arrived request's clock.
func (s *Sched) nextArrival() (float64, bool) {
	found := false
	var min float64
	for t := range s.streams {
		if s.next[t] < len(s.streams[t].Reqs) {
			if a := s.arrival[t][s.next[t]]; !found || a < min {
				min, found = a, true
			}
		}
	}
	return min, found
}

// selectBatches fills up to Lanes batches for this round and returns
// how many. Tenants left backlogged without contributing a single
// request to any batch count a starved round.
func (s *Sched) selectBatches() int {
	for t := range s.served {
		s.served[t] = false
	}
	lanes := s.cfg.lanes()
	nb := 0
	for nb < lanes && s.nq > 0 {
		s.buildBatch(nb, s.pickTenant())
		nb++
	}
	for t := range s.streams {
		if s.q[t].n > 0 && !s.served[t] {
			s.starved[t]++
		}
	}
	return nb
}

// pickTenant chooses the tenant whose queue head seeds the next batch.
func (s *Sched) pickTenant() int {
	T := len(s.streams)
	if s.cfg.policy() == PolicyWeighted {
		best, bestPass := -1, int64(0)
		for t := 0; t < T; t++ {
			if s.q[t].n > 0 && (best < 0 || s.pass[t] < bestPass) {
				best, bestPass = t, s.pass[t]
			}
		}
		if s.vtime < bestPass {
			s.vtime = bestPass
		}
		return best
	}
	for i := 0; i < T; i++ {
		t := (s.rrPos + i) % T
		if s.q[t].n > 0 {
			s.rrPos = (t + 1) % T
			return t
		}
	}
	panic("serve: pickTenant with empty queues")
}

// take dequeues tenant t's head into the current batch's bookkeeping.
func (s *Sched) take(t int) int32 {
	id := s.q[t].pop()
	s.nq--
	s.served[t] = true
	s.tenantReqs[t]++
	if s.cfg.policy() == PolicyWeighted {
		s.pass[t] += strideUnit / int64(s.streams[t].weight())
	}
	return id
}

// reqOf resolves a global id back to its request.
func (s *Sched) reqOf(id int32) *Req {
	t := s.tenantOf[id]
	return &s.streams[t].Reqs[int(id)-s.off[t]]
}

// buildBatch seeds batch bi from tenant t's queue head and extends it
// with compatible requests: first the rest of t's queue prefix, then
// the other tenants' queue prefixes in rotation order. Only queue
// *prefixes* ever join — a batch never reaches past a tenant's
// incompatible head, so requests within a tenant are dispatched in
// stream order, always (a property test holds the scheduler to it).
// Compatible means the same operation (and root, for rooted ops);
// payloads concatenate, so the batch runs as one collective of the
// summed line count.
func (s *Sched) buildBatch(bi, t int) {
	bt := &s.batches[bi]
	head := s.take(t)
	r0 := s.reqOf(head)
	bt.op, bt.root, bt.lines = r0.Op, r0.Root, r0.Lines
	bt.members = append(bt.members[:0], head)
	maxReqs := s.cfg.maxBatch()
	maxLines := s.cfg.maxBatchLines()
	T := len(s.streams)
	for i := 0; i < T && len(bt.members) < maxReqs; i++ {
		u := (t + i) % T
		for s.q[u].n > 0 && len(bt.members) < maxReqs {
			cand := s.reqOf(s.q[u].peek())
			if cand.Op != bt.op || (workload.OpOf(bt.op).Rooted && cand.Root != bt.root) ||
				bt.lines+cand.Lines > maxLines {
				break
			}
			bt.members = append(bt.members, s.take(u))
			bt.lines += cand.Lines
		}
	}
}

// dispatch executes this round's batches. A single batch runs the
// blocking collective — full algorithm selection, including the
// two-sided stacks. Multiple batches issue the non-blocking one-sided
// twins over distinct progress-engine lanes and are waited in issue
// order, the one completion order every core shares.
func (s *Sched) dispatch(r Runner, b *Board, h *Hooks, nb int) {
	blocking := nb == 1
	for i := 0; i < nb; i++ {
		bt := &s.batches[i]
		addr := s.l.SlotAddr(s.dispatched)
		s.dispatched++
		bt.seq = s.dispatched
		if h != nil && h.BatchBegin != nil {
			h.BatchBegin(bt.seq, bt.op, len(bt.members), bt.lines)
		}
		if blocking {
			r.Run(bt.op, bt.root, addr, s.l.ScratchAddr, bt.lines)
			s.complete(r, b, h, bt)
		} else {
			s.pend[i] = r.Issue(bt.op, bt.root, addr, bt.lines)
		}
	}
	if !blocking {
		for i := 0; i < nb; i++ {
			s.pend[i].Wait()
			s.pend[i] = nil
			s.complete(r, b, h, &s.batches[i])
		}
	}
	s.nbatches += nb
}

// complete records a batch's completion: the board keeps the max
// completion clock any core observed per request (the chip-wide
// completion time — order-independent, so the cross-core writes are
// deterministic).
func (s *Sched) complete(r Runner, b *Board, h *Hooks, bt *batch) {
	now := r.NowUs()
	for _, id := range bt.members {
		if now > b.DoneUs[id] {
			b.DoneUs[id] = now
		}
		s.state[id] = stDone
		s.doneOrder = append(s.doneOrder, id)
	}
	s.batchReqs += len(bt.members)
	if h != nil && h.BatchEnd != nil {
		h.BatchEnd(bt.seq)
	}
}

// EndUs reports this replica's clock when the serving loop exited (the
// public adapter anchors end-of-run observability events at it).
func (s *Sched) EndUs() float64 { return s.endClockUs }

// DoneOrder returns the global request ids in this replica's completion
// order (test hook: within a tenant the order must match stream order).
func (s *Sched) DoneOrder() []int32 { return s.doneOrder }

// sanity panics if internal invariants broke (debug hook for tests).
func (s *Sched) sanity() {
	if s.nq != 0 {
		panic(fmt.Sprintf("serve: %d requests still queued after run", s.nq))
	}
}
