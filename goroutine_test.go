package ocbcast_test

import (
	"runtime"
	"testing"
	"time"

	ocbcast "repro"
)

// A request in flight is plain data: issuing one starts no goroutine, so
// a run torn down by a panic strands nothing beyond the simulated procs
// a panicked run always abandons.

// goroutinesAfterPanic runs an 8-core body that panics on core 0 —
// after every core issued one IAllReduceOC when withRequests — recovers
// the panic on the caller, and reports how many goroutines the torn-down
// run left behind.
func goroutinesAfterPanic(t *testing.T, withRequests bool) int {
	t.Helper()
	// Settle first: stragglers of an earlier test still exiting would
	// otherwise count against this call's baseline only.
	before := settledGoroutines()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run did not re-raise the body's panic")
			}
		}()
		ocbcast.New(ocbcast.Options{Cores: 8}).Run(func(c *ocbcast.Core) {
			if withRequests {
				c.IAllReduceOC(0, 4, ocbcast.SumInt64)
			}
			if c.ID() == 0 {
				panic("boom")
			}
			c.Barrier() // never completes: core 0 is gone
		})
	}()
	return settledGoroutines() - before
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

// TestPanicWithRequestsInFlightLeaksNoExtraGoroutines: System.Run never
// reaches Collectives.Finish when the body panics (API misuse, a
// deadlock tear-down recovered by the caller), so whatever a request
// holds stays held. It must hold no goroutine.
func TestPanicWithRequestsInFlightLeaksNoExtraGoroutines(t *testing.T) {
	without := goroutinesAfterPanic(t, false)
	with := goroutinesAfterPanic(t, true)
	if with != without {
		t.Errorf("recovered panic strands %d goroutines with a request in flight per core, %d without", with, without)
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
