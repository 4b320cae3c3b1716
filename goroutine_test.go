package ocbcast_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	ocbcast "repro"
)

// A torn-down run — a body panicked, or the simulation deadlocked, and
// the caller recovered Run's panic — unwinds every body still parked,
// and a request in flight is plain data: issuing one starts no
// goroutine. So such a run strands nothing.

// tearDown runs body on 8 cores, expects Run to panic, recovers it on
// the caller, and reports how many goroutines still have body on their
// stack and how far the settled goroutine count moved. A clean 8-core
// run first leaves at least 8 coroutines on the engine's idle list, so
// the torn-down run creates none of its own and the count's move
// depends only on what the run leaves behind.
func tearDown(t *testing.T, body func(c *ocbcast.Core), name string) (stranded, moved int) {
	t.Helper()
	ocbcast.New(ocbcast.Options{Cores: 8}).Run(func(c *ocbcast.Core) {})
	// Settle first: stragglers of an earlier test still exiting would
	// otherwise count against this call's baseline only.
	before := settledGoroutines()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run did not panic")
			}
		}()
		ocbcast.New(ocbcast.Options{Cores: 8}).Run(body)
	}()
	moved = settledGoroutines() - before
	return goroutinesRunning(name), moved
}

// goroutinesRunning counts the goroutines with fn on their stack.
func goroutinesRunning(fn string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) {
			count++
		}
	}
	return count
}

// settledGoroutines lets goroutines that are on their way out finish
// exiting — until the count has not fallen for 50 ms — and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, i = m, 0
		}
	}
	return n
}

// panickingBody panics on core 0 once every core is inside the body: the
// other seven are parked in the second barrier when it does.
func panickingBody(c *ocbcast.Core) {
	c.Barrier()
	if c.ID() == 0 {
		panic("boom")
	}
	c.Barrier() // never completes: core 0 is gone
}

// deadlockingBody returns on core 0 and parks the other seven in a
// barrier that core 0 never enters.
func deadlockingBody(c *ocbcast.Core) {
	c.Barrier()
	if c.ID() != 0 {
		c.Barrier()
	}
}

// requestsThenPanic is panickingBody with an IAllReduceOC in flight on
// every core.
func requestsThenPanic(c *ocbcast.Core) {
	c.IAllReduceOC(0, 4, ocbcast.SumInt64)
	panickingBody(c)
}

// TestPanickedRunStrandsNoGoroutine: after a body panics, no goroutine
// is left running the body and the goroutine count does not grow.
func TestPanickedRunStrandsNoGoroutine(t *testing.T) {
	stranded, moved := tearDown(t, panickingBody, "repro_test.panickingBody(")
	if stranded != 0 || moved > 0 {
		t.Errorf("panicked 8-core run left %d goroutines in its body; goroutine count moved by %d, want ≤ 0", stranded, moved)
	}
}

// TestDeadlockedRunStrandsNoGoroutine: a deadlock report recovered by
// the caller leaves no goroutine running the body either.
func TestDeadlockedRunStrandsNoGoroutine(t *testing.T) {
	stranded, moved := tearDown(t, deadlockingBody, "repro_test.deadlockingBody(")
	if stranded != 0 || moved > 0 {
		t.Errorf("deadlocked 8-core run left %d goroutines in its body; goroutine count moved by %d, want ≤ 0", stranded, moved)
	}
}

// TestPanicWithRequestsInFlightLeaksNoExtraGoroutines: System.Run never
// reaches Collectives.Finish when the body panics (API misuse, a
// deadlock tear-down recovered by the caller), so whatever a request
// holds stays held. It must hold no goroutine.
func TestPanicWithRequestsInFlightLeaksNoExtraGoroutines(t *testing.T) {
	_, without := tearDown(t, panickingBody, "repro_test.panickingBody(")
	_, with := tearDown(t, requestsThenPanic, "repro_test.requestsThenPanic(")
	if with != without {
		t.Errorf("recovered panic moves the goroutine count by %d with a request in flight per core, %d without", with, without)
	}
}

// TestRequestsSpawnNoGoroutines counts goroutines inside a run before
// any request exists and again while every core has two stopped on
// their flags.
func TestRequestsSpawnNoGoroutines(t *testing.T) {
	var before, during int
	inFlight := false
	ocbcast.New(ocbcast.Options{Cores: 8, ChunkLines: 16, Channels: 2}).Run(func(c *ocbcast.Core) {
		c.Barrier() // every proc's goroutine is up
		if c.ID() == 0 {
			before = runtime.NumGoroutine()
		}
		r1 := c.IAllReduceOC(0, 40, ocbcast.SumInt64)
		r2 := c.IBcastOC(3, 40*ocbcast.CacheLineBytes, 40)
		d1, d2 := false, false
		if c.ID() == 0 {
			during = runtime.NumGoroutine()
			d1 = r1.Test()
			inFlight = !d1
		}
		for !d1 || !d2 {
			c.Compute(1)
			d1 = d1 || r1.Test()
			d2 = d2 || r2.Test()
		}
	})
	if !inFlight {
		t.Fatal("the allreduce completed at issue: nothing was in flight when goroutines were counted")
	}
	if during != before {
		t.Errorf("%d goroutines with two requests in flight per core, %d before any was issued", during, before)
	}
}
