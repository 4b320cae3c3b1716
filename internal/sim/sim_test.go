package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func TestTimeConversions(t *testing.T) {
	if Micros(0.005) != 5*Nanosecond {
		t.Fatalf("Micros(0.005) = %d ps, want 5000", Micros(0.005))
	}
	if Micros(1) != Microsecond {
		t.Fatalf("Micros(1) = %v, want 1µs", Micros(1))
	}
	if got := (2 * Microsecond).Microseconds(); got != 2.0 {
		t.Fatalf("Microseconds() = %v, want 2.0", got)
	}
	if s := (1500 * Nanosecond).String(); s != "1.5000µs" {
		t.Fatalf("String() = %q", s)
	}
}

func TestEngineRunsAllProcs(t *testing.T) {
	e := NewEngine(5)
	visited := make([]bool, 5)
	e.Run(func(p *Proc) {
		visited[p.ID()] = true
		p.Advance(Time(p.ID()) * Microsecond)
	})
	for i, v := range visited {
		if !v {
			t.Errorf("proc %d did not run", i)
		}
	}
	for i := 0; i < 5; i++ {
		if got := e.Proc(i).Now(); got != Time(i)*Microsecond {
			t.Errorf("proc %d clock = %v, want %dµs", i, got, i)
		}
	}
}

func TestEngineRunTwicePanics(t *testing.T) {
	e := NewEngine(1)
	e.Run(func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	e.Run(func(p *Proc) {})
}

// TestSchedulerOrder verifies the min-time, then min-id admission order by
// recording the order in which processes execute labelled steps.
func TestSchedulerOrder(t *testing.T) {
	e := NewEngine(3)
	var order []int
	e.Run(func(p *Proc) {
		// proc 0 advances 30, 10; proc 1: 10, 10; proc 2: 20, 5.
		steps := [][]Duration{
			{30 * Microsecond, 10 * Microsecond},
			{10 * Microsecond, 10 * Microsecond},
			{20 * Microsecond, 5 * Microsecond},
		}[p.ID()]
		for _, d := range steps {
			p.Advance(d)
			order = append(order, p.ID())
		}
	})
	// The append after each Advance runs when the proc is next admitted,
	// i.e. in completion-time order of the steps (ties by id):
	// completions are p1@10, p1@20 (tie with p2@20, p1 wins by id),
	// p2@20, p2@25, p0@30, p0@40.
	want := []int{1, 1, 2, 2, 0, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(8)
		e.Run(func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Advance(Duration((p.ID()*7+i*3)%11) * Nanosecond)
			}
		})
		out := make([]Time, 8)
		for i := range out {
			out[i] = e.Proc(i).Now()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic clocks: run1=%v run2=%v", a, b)
		}
	}
}

func TestBlockAndSignal(t *testing.T) {
	e := NewEngine(2)
	key := WatchKey{Space: 0, Line: 7}
	var ready bool
	var observedAt Time
	e.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Block(key, func() bool { return ready })
			observedAt = p.Now()
		case 1:
			p.Advance(5 * Microsecond)
			ready = true
			p.Engine().Signal(key, 8*Microsecond) // write lands at t=8
		}
	})
	if observedAt != 8*Microsecond {
		t.Fatalf("blocked proc woke at %v, want 8µs (the write's effective time)", observedAt)
	}
}

// TestForeignSpacesShareOneBucket: watch spaces outside 0..N-1 (rma's
// interrupt keys sit at 1<<20) share the engine's last watcher bucket,
// so the table keeps N+1 buckets however large the space id — it used to
// grow one slot at a time up to it — and a signal still wakes only the
// waiters of its own space.
func TestForeignSpacesShareOneBucket(t *testing.T) {
	e := NewEngine(3)
	far, near := WatchKey{Space: 1 << 20, Line: 4}, WatchKey{Space: 7, Line: 4}
	var farReady, nearReady bool
	var woke [2]Time
	e.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Block(far, func() bool { return farReady })
			woke[0] = p.Now()
		case 1:
			p.Block(near, func() bool { return nearReady })
			woke[1] = p.Now()
		case 2:
			p.Advance(Microsecond)
			farReady, nearReady = true, true
			e.Signal(near, 2*Microsecond) // must not wake the waiter on `far`
			p.Advance(4 * Microsecond)
			e.Signal(far, 9*Microsecond)
		}
	})
	if woke != [2]Time{9 * Microsecond, 2 * Microsecond} {
		t.Fatalf("waiters woke at %v, want [9µs 2µs]: a signal crossed spaces in the shared bucket", woke)
	}
	if len(e.watchers) != 4 {
		t.Fatalf("%d watcher buckets after blocking on space %d, want 4", len(e.watchers), far.Space)
	}
}

func TestBlockPredicateAlreadyTrue(t *testing.T) {
	e := NewEngine(1)
	e.Run(func(p *Proc) {
		p.Advance(3 * Microsecond)
		got := p.Block(WatchKey{}, func() bool { return true })
		if got != 3*Microsecond {
			t.Fatalf("Block with true predicate returned %v, want 3µs", got)
		}
	})
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked engine did not panic")
		}
	}()
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Block(WatchKey{Space: 1, Line: 1}, func() bool { return false })
		}
	})
}

// TestDeadlockReportIncludesTimeline: with an observer attached, the
// deadlock panic names each stuck proc's recent timeline events — the
// block instant itself at minimum — so the report says what the core
// was doing, not just that it was blocked.
func TestDeadlockReportIncludesTimeline(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked engine did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("recovered %T, want string", r)
		}
		for _, want := range []string{"proc 0 recent events:", "sim/block"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("deadlock report missing %q:\n%s", want, msg)
			}
		}
	}()
	e := NewEngine(2)
	e.SetObserver(obs.NewRecorder())
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(Microsecond)
			p.Block(WatchKey{Space: 1, Line: 7}, func() bool { return false })
		}
	})
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("process panic did not propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	e := NewEngine(3)
	e.Run(func(p *Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
	})
}

func TestResourceFIFO(t *testing.T) {
	r := NewResource(10 * Nanosecond)
	// Uncontended: starts immediately.
	if got := r.Reserve(100*Nanosecond, 3); got != 130*Nanosecond {
		t.Fatalf("first reserve finish = %v, want 130ns", got)
	}
	// Second request at t=105 queues behind the first.
	if got := r.Reserve(105*Nanosecond, 2); got != 150*Nanosecond {
		t.Fatalf("queued reserve finish = %v, want 150ns", got)
	}
	// After the queue drains, requests start immediately again.
	if got := r.Reserve(500*Nanosecond, 1); got != 510*Nanosecond {
		t.Fatalf("post-drain reserve finish = %v, want 510ns", got)
	}
	res, units, busy, queued := r.Stats()
	if res != 3 || units != 6 {
		t.Fatalf("stats reservations=%d units=%d, want 3, 6", res, units)
	}
	if busy != 60*Nanosecond {
		t.Fatalf("busy = %v, want 60ns", busy)
	}
	if queued != 25*Nanosecond { // second request waited 130-105
		t.Fatalf("queued = %v, want 25ns", queued)
	}
}

func TestResourceReserveDur(t *testing.T) {
	r := NewResource(10 * Nanosecond)
	if got := r.ReserveDur(0, 37*Nanosecond); got != 37*Nanosecond {
		t.Fatalf("ReserveDur finish = %v, want 37ns", got)
	}
	if got := r.ReserveDur(0, 5*Nanosecond); got != 42*Nanosecond {
		t.Fatalf("queued ReserveDur finish = %v, want 42ns", got)
	}
	if got := r.Reserve(0, 0); got != 0 {
		t.Fatalf("zero-unit reserve should be free, got %v", got)
	}
	r.Reset()
	if got := r.free; got != 0 {
		t.Fatalf("next free time after Reset = %v, want 0", got)
	}
}

// Property: for any sequence of non-negative reservations issued at
// nondecreasing times, service is FIFO and work-conserving: finish times
// are nondecreasing and total busy time equals the sum of service demands.
func TestResourceProperties(t *testing.T) {
	f := func(units []uint8) bool {
		r := NewResource(3 * Nanosecond)
		var tm Time
		var prevFinish Time
		var total Duration
		for i, u := range units {
			n := int(u % 16)
			tm += Time(i%5) * Nanosecond
			finish := r.Reserve(tm, n)
			if n > 0 {
				if finish < prevFinish {
					return false
				}
				prevFinish = finish
				total += Duration(n) * 3 * Nanosecond
			}
			if finish < tm {
				return false
			}
		}
		_, _, busy, _ := r.Stats()
		return busy == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunQueueOrdering exercises the indexed min-heap directly: pops come
// out in (clock, id) order regardless of push order.
func TestRunQueueOrdering(t *testing.T) {
	e := NewEngine(6)
	clocks := []Time{30, 10, 20, 10, 5, 30}
	var q runQueue
	for i := range e.procs {
		p := e.Proc(i)
		p.now = clocks[i]
		q.push(p)
	}
	want := []int{4, 1, 3, 2, 0, 5} // by (clock, id)
	for _, id := range want {
		p := q.pop()
		if p == nil || p.id != id {
			t.Fatalf("pop = %v, want proc %d", p, id)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue not empty after all pops")
	}
}

// TestRunQueueDoublePushPanics guards the scheduler invariant that a
// process is queued at most once.
func TestRunQueueDoublePushPanics(t *testing.T) {
	e := NewEngine(1)
	var q runQueue
	q.push(e.Proc(0))
	defer func() {
		if recover() == nil {
			t.Fatal("double push did not panic")
		}
	}()
	q.push(e.Proc(0))
}

// TestEngineResetRunReuse pins the reused-engine lifecycle: Reset+Run
// cycles behave exactly like the first Run, with each cycle's coroutines
// taken back from the idle list — no goroutine is created once it is
// warm.
func TestEngineResetRunReuse(t *testing.T) {
	e := NewEngine(5)
	var during int
	body := func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(Duration(1 + p.ID()))
		}
		if p.ID() == 0 {
			during = runtime.NumGoroutine()
		}
	}
	var finals [3][]Time
	for run := 0; run < 3; run++ {
		if run > 0 && !e.Reset() {
			t.Fatal("Reset refused on a cleanly completed engine")
		}
		before := runtime.NumGoroutine()
		e.Run(body)
		if run > 0 && during != before {
			t.Errorf("run %d: %d goroutines inside the run, %d before it", run, during, before)
		}
		for i := range e.procs {
			finals[run] = append(finals[run], e.procs[i].now)
			if e.procs[i].co != nil {
				t.Errorf("run %d proc %d still holds its coroutine after a clean Run", run, i)
			}
		}
	}
	for run := 1; run < 3; run++ {
		for i := range finals[0] {
			if finals[run][i] != finals[0][i] {
				t.Errorf("run %d proc %d final clock %v, want %v", run, i, finals[run][i], finals[0][i])
			}
		}
	}
}

// TestAdvanceYieldAllocFree pins the scheduler hot path: on a warmed
// engine, a full Reset+Run cycle of pure Advance traffic performs zero
// heap allocations.
func TestAdvanceYieldAllocFree(t *testing.T) {
	e := NewEngine(4)
	body := func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Advance(Duration(1 + (p.ID()+i)%3))
		}
	}
	e.Run(body) // warm: fill the idle list, grow the run-queue heap
	allocs := testing.AllocsPerRun(20, func() {
		if !e.Reset() {
			t.Fatal("Reset refused")
		}
		e.Run(body)
	})
	if allocs > 0 {
		t.Errorf("Reset+Run of a warmed engine allocates %.1f times per cycle, want 0", allocs)
	}
}

// BenchmarkRunQueuePushPop is the scheduler's hottest run-queue
// operation: the running process re-queues at a later clock and the
// next one to run comes out, over 48 and 384 queued processes. Every pop
// is checked to follow the previous one in (clock, id) order, and the
// last one to be no later than any process left queued.
func BenchmarkRunQueuePushPop(b *testing.B) {
	for _, n := range []int{48, 384} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			e := NewEngine(n)
			var q runQueue
			for i := range e.procs {
				p := e.Proc(i)
				p.now = Time(i % 7)
				q.push(p)
			}
			cur := q.pop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, id := cur.now, cur.id
				cur.now += Time(1 + (cur.id*7+i)%13)
				cur = q.pushPop(cur)
				if cur.now < now || cur.now == now && cur.id <= id {
					b.Fatalf("pop %d: proc %d at %d after proc %d at %d", i, cur.id, cur.now, id, now)
				}
			}
			b.StopTimer()
			last := entry(cur)
			for _, e := range q.heap {
				if e.before(&last) || e.p.now != e.now || e.p.id != e.id || !e.p.queued {
					b.Fatalf("proc %d at %d (entry key %d, %d) is queued ahead of the popped proc %d at %d", e.p.id, e.p.now, e.now, e.id, cur.id, cur.now)
				}
			}
		})
	}
}
