package mem

import (
	"fmt"

	"repro/internal/sim"
)

// portLedger is the §3.3 contention model's view of one MPB port: which
// remote cores touched it within a trailing window, and how often each.
// It keeps a circular FIFO of the in-window accesses plus a table of the
// cores that own them, so one access costs amortised O(live accessors)
// and the footprint follows the window's traffic — neither depends on
// core ids or chip size. It relies on the invariant settle, sweepPending
// and sim.Resource also rest on — the engine issues operations in
// nondecreasing global time — so records expire strictly from the FIFO's
// head; expire checks it. All calls must pass the same window.
type portLedger struct {
	ring    []portAccess // circular; len is a power of two
	head, n int
	live    []liveAccessor // cores with ≥ 1 record in ring, unordered
	last    sim.Time       // latest time seen
}

type portAccess struct {
	t    sim.Time
	core int
}

type liveAccessor struct{ core, count int }

// expire drops the records that left the window ending at t: a record
// is live iff rec.t+window ≥ t.
func (l *portLedger) expire(t sim.Time, window sim.Duration) {
	if t < l.last {
		panic(fmt.Sprintf("mem: port access at %v after one at %v (operations must be issued in nondecreasing time)", t, l.last))
	}
	l.last = t
	for l.n > 0 && l.ring[l.head].t+window < t {
		core := l.ring[l.head].core
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		for i := range l.live {
			if a := &l.live[i]; a.core == core {
				if a.count--; a.count == 0 {
					*a = l.live[len(l.live)-1]
					l.live = l.live[:len(l.live)-1]
				}
				break
			}
		}
	}
}

// note records an access by core at time t and returns that core's
// in-window access count (this one included) and the number of distinct
// in-window accessors. The first ring and accessor table are windows of
// the owning MPB's slab s; past them both grow by doubling.
func (l *portLedger) note(core int, t sim.Time, window sim.Duration, s *Slab) (recent, active int) {
	l.expire(t, window)
	switch {
	case l.ring == nil:
		l.ring, l.live = s.ring(), s.live()
	case l.n == len(l.ring):
		ring := make([]portAccess, 2*len(l.ring))
		for i := 0; i < l.n; i++ {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = portAccess{t, core}
	l.n++
	for i := range l.live {
		if a := &l.live[i]; a.core == core {
			a.count++
			return a.count, len(l.live)
		}
	}
	l.live = append(l.live, liveAccessor{core, 1})
	return 1, len(l.live)
}
