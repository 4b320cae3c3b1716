package occoll

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/oracle"
	"repro/internal/rcce"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// mustPanic asserts fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		var msg string
		switch v := r.(type) {
		case string:
			msg = v
		case error:
			msg = v.Error()
		default:
			t.Fatalf("panic of unexpected type %T: %v", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

// TestNonBlockingWaitImmediatelyIdentical issues each non-blocking
// collective and Waits immediately, asserting per-core completion times
// and buffer contents are identical to the blocking twin — the progress
// engine's headline contract.
func TestNonBlockingWaitImmediatelyIdentical(t *testing.T) {
	const (
		n     = 16
		lines = 11
		root  = 3
	)
	cfg := Config{K: 3, BufLines: 4, DoubleBuffer: true}
	nbytes := lines * scc.CacheLine

	type runner func(x *Collectives)
	ops := []struct {
		name     string
		blocking runner
		nonblock runner
	}{
		{"Bcast",
			func(x *Collectives) { x.Bcast(root, 0, lines) },
			func(x *Collectives) { x.IBcast(root, 0, lines).Wait() }},
		{"Reduce",
			func(x *Collectives) { x.Reduce(root, 0, lines, collective.SumInt64) },
			func(x *Collectives) { x.IReduce(root, 0, lines, collective.SumInt64).Wait() }},
		{"AllReduce",
			func(x *Collectives) { x.AllReduce(0, lines, collective.MaxInt64) },
			func(x *Collectives) { x.IAllReduce(0, lines, collective.MaxInt64).Wait() }},
		{"Scatter",
			func(x *Collectives) { x.Scatter(root, 0, lines) },
			func(x *Collectives) { x.IScatter(root, 0, lines).Wait() }},
		{"Gather",
			func(x *Collectives) { x.Gather(root, 0, lines) },
			func(x *Collectives) { x.IGather(root, 0, lines).Wait() }},
		{"AllGather",
			func(x *Collectives) { x.AllGather(0, lines) },
			func(x *Collectives) { x.IAllGather(0, lines).Wait() }},
	}

	for _, op := range ops {
		op := op
		t.Run(op.name, func(t *testing.T) {
			measure := func(body runner) ([]sim.Time, [][]byte) {
				chip := rma.NewChipN(scc.DefaultConfig(), n)
				fillPayload(chip, n, 0, n*nbytes, 7)
				times := make([]sim.Time, n)
				chip.Run(func(c *rma.Core) {
					x := New(c, rcce.NewPort(c), cfg)
					body(x)
					times[c.ID()] = c.Now()
				})
				bufs := make([][]byte, n)
				for i := range bufs {
					bufs[i] = make([]byte, n*nbytes)
					chip.Private(i).Read(bufs[i], 0, n*nbytes)
				}
				return times, bufs
			}
			bt, bb := measure(op.blocking)
			nt, nb := measure(op.nonblock)
			for i := 0; i < n; i++ {
				if bt[i] != nt[i] {
					t.Errorf("core %d: blocking finished at %v, issue+Wait at %v", i, bt[i], nt[i])
				}
				if !bytes.Equal(bb[i], nb[i]) {
					t.Errorf("core %d: buffer contents differ between blocking and issue+Wait", i)
				}
			}
		})
	}
}

// TestProgressOverlapsCompute interleaves compute slices with Test polls
// during a non-blocking AllReduce and asserts (a) the result is still
// correct and (b) the interleaved run beats collective-then-compute —
// i.e. the engine genuinely fills flag-wait idle time with computation.
func TestProgressOverlapsCompute(t *testing.T) {
	const (
		n       = 16
		lines   = 32
		compute = 150.0 // µs of local work per core
		grain   = 1.0   // µs per slice between polls
	)
	cfg := Config{K: 3, BufLines: 8, DoubleBuffer: true}
	nbytes := lines * scc.CacheLine

	runOnce := func(overlap bool) (sim.Time, *rma.Chip, [][]byte) {
		chip := rma.NewChipN(scc.DefaultConfig(), n)
		payloads := fillPayload(chip, n, 0, nbytes, 3)
		var makespan sim.Time
		chip.Run(func(c *rma.Core) {
			x := New(c, rcce.NewPort(c), cfg)
			if overlap {
				r := x.IAllReduce(0, lines, collective.SumInt64)
				rem, done := compute, false
				for rem > 0 {
					c.Compute(sim.Micros(grain))
					rem -= grain
					if !done && r.Test() {
						done = true
					}
				}
				if !done {
					r.Wait()
				}
			} else {
				x.AllReduce(0, lines, collective.SumInt64)
				c.Compute(sim.Micros(compute))
			}
			x.Finish()
			if c.Now() > makespan {
				makespan = c.Now()
			}
		})
		return makespan, chip, payloads
	}

	blocking, _, _ := runOnce(false)
	overlapped, chip, payloads := runOnce(true)

	ref := oracle.Reference(workload.OpOf(workload.OpAllReduce), n, 0, lines, 0, payloads, collective.SumInt64)[0][0].Want
	for core := 0; core < n; core++ {
		got := make([]byte, nbytes)
		chip.Private(core).Read(got, 0, nbytes)
		if !bytes.Equal(got, ref) {
			t.Errorf("core %d: overlapped allreduce result wrong", core)
		}
	}
	if overlapped >= blocking {
		t.Fatalf("no overlap benefit: interleaved makespan %v >= serial %v", overlapped, blocking)
	}
	t.Logf("serial %v, overlapped %v (%.2fx)", blocking, overlapped,
		float64(blocking)/float64(overlapped))
}

// TestMultiLaneOverlappingRequests issues several broadcasts from
// distinct roots on distinct lanes before completing any of them, then
// polls all to completion with Test between compute slices.
func TestMultiLaneOverlappingRequests(t *testing.T) {
	const (
		n     = 12
		lines = 6
	)
	cfg := Config{K: 2, BufLines: 2, DoubleBuffer: true, Channels: 3}
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
	nbytes := lines * scc.CacheLine
	roots := []int{0, 5, 11}
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	payloads := make([][]byte, len(roots))
	for i, r := range roots {
		payloads[i] = make([]byte, nbytes)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*31 + j)
		}
		chip.Private(r).Write(i*nbytes, payloads[i])
	}
	chip.Run(func(c *rma.Core) {
		x := New(c, rcce.NewPort(c), cfg)
		reqs := make([]*Request, len(roots))
		for i, r := range roots {
			reqs[i] = x.IBcast(r, i*nbytes, lines)
			if got := reqs[i].Op(); got != "IBcast" {
				t.Errorf("request op %q, want IBcast", got)
			}
		}
		if got := x.Outstanding(); got > len(roots) {
			t.Errorf("%d outstanding requests, want <= %d", got, len(roots))
		}
		pending := len(roots)
		for pending > 0 {
			c.Compute(sim.Micros(0.5))
			for i, r := range reqs {
				if r != nil && r.Test() {
					reqs[i] = nil
					pending--
				}
			}
			// A protocol can complete during a later request's Test
			// before this sweep re-polls it, so Outstanding may run
			// ahead of (but never behind) the handles observed done.
			if got := x.Outstanding(); got > pending {
				t.Errorf("Outstanding() = %d, want <= %d", got, pending)
			}
		}
		x.Finish()
	})
	for core := 0; core < n; core++ {
		for i := range roots {
			got := make([]byte, nbytes)
			chip.Private(core).Read(got, i*nbytes, nbytes)
			if !bytes.Equal(got, payloads[i]) {
				t.Errorf("core %d: broadcast %d payload corrupted", core, i)
			}
		}
	}
}

// TestLaneExhaustionDrivesPrevious issues more requests than lanes and
// asserts the engine transparently drives the lane's previous request to
// completion, with a later Wait on the auto-driven handle succeeding.
func TestLaneExhaustionDrivesPrevious(t *testing.T) {
	const n, lines = 8, 4
	cfg := Config{K: 2, BufLines: 2, DoubleBuffer: true, Channels: 1}
	nbytes := lines * scc.CacheLine
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	pay := make([]byte, 2*nbytes)
	for j := range pay {
		pay[j] = byte(j * 3)
	}
	chip.Private(0).Write(0, pay)
	chip.Run(func(c *rma.Core) {
		x := New(c, rcce.NewPort(c), cfg)
		r1 := x.IBcast(0, 0, lines)
		r2 := x.IBcast(0, nbytes, lines) // lane reuse: drives r1 internally
		r1.Wait()                        // auto-driven: returns immediately, consumes handle
		r2.Wait()
		x.Finish()
	})
	got := make([]byte, 2*nbytes)
	chip.Private(n-1).Read(got, 0, 2*nbytes)
	if !bytes.Equal(got, pay) {
		t.Fatal("payloads corrupted across lane reuse")
	}
}

// TestRequestLifecyclePanics covers the bugfix-sweep error paths: double
// Wait, Test on a consumed handle, use after the core finished, leaked
// requests, and issue after Finish.
func TestRequestLifecyclePanics(t *testing.T) {
	cfg := Config{K: 2, BufLines: 2, DoubleBuffer: true}

	runBody := func(body func(c *rma.Core, x *Collectives)) {
		chip := rma.NewChipN(scc.DefaultConfig(), 4)
		chip.Run(func(c *rma.Core) {
			body(c, New(c, rcce.NewPort(c), cfg))
		})
	}

	t.Run("double-wait", func(t *testing.T) {
		mustPanic(t, "Wait on completed IBcast request", func() {
			runBody(func(c *rma.Core, x *Collectives) {
				r := x.IBcast(0, 0, 2)
				r.Wait()
				if c.ID() == 0 {
					r.Wait()
				}
			})
		})
	})

	t.Run("test-on-completed", func(t *testing.T) {
		mustPanic(t, "Test on completed IGather request", func() {
			runBody(func(c *rma.Core, x *Collectives) {
				r := x.IGather(0, 0, 2)
				r.Wait()
				if c.ID() == 1 {
					r.Test()
				}
			})
		})
	})

	t.Run("wait-after-test-true", func(t *testing.T) {
		mustPanic(t, "Wait on completed IAllReduce request", func() {
			runBody(func(c *rma.Core, x *Collectives) {
				r := x.IAllReduce(0, 2, collective.SumInt64)
				r.Wait()
				// consume twice via Test on a second op
				r2 := x.IAllReduce(0, 2, collective.SumInt64)
				for !r2.Test() {
					c.Compute(sim.Micros(0.5))
				}
				if c.ID() == 0 {
					r2.Wait()
				}
			})
		})
	})

	t.Run("leaked-request", func(t *testing.T) {
		mustPanic(t, "unconsumed non-blocking request", func() {
			runBody(func(c *rma.Core, x *Collectives) {
				x.IBcast(0, 0, 2)
				x.Finish()
			})
		})
	})

	t.Run("leaked-auto-driven-request", func(t *testing.T) {
		// Lane reuse drives the first request's protocol to completion,
		// but its handle was never consumed: still a contract violation.
		mustPanic(t, "unconsumed non-blocking request(s) [IBcast]", func() {
			runBody(func(c *rma.Core, x *Collectives) {
				x.IBcast(0, 0, 2)
				x.IGather(0, 0, 2).Wait()
				x.Finish()
			})
		})
	})

	t.Run("use-after-finish", func(t *testing.T) {
		var leakedReq *Request
		var leakedX *Collectives
		runBody(func(c *rma.Core, x *Collectives) {
			r := x.IBcast(0, 0, 2)
			r.Wait()
			if c.ID() == 0 {
				leakedReq, leakedX = r, x
			}
			x.Finish()
		})
		mustPanic(t, "after its core finished", func() { leakedReq.Wait() })
		mustPanic(t, "Progress after its core finished", func() { leakedX.Progress() })
		mustPanic(t, "issued after its core finished", func() { leakedX.IBcast(0, 0, 2) })
	})

	t.Run("nil-op", func(t *testing.T) {
		mustPanic(t, "nil reduce op", func() {
			runBody(func(c *rma.Core, x *Collectives) {
				x.IAllReduce(0, 2, nil)
			})
		})
	})
}

// TestValidateChannels pins the multi-lane layout bound: lanes must fit
// below the RCCE-owned lines.
func TestValidateChannels(t *testing.T) {
	if err := Validate(Config{K: 2, BufLines: 2, DoubleBuffer: true, Channels: 4}); err != nil {
		t.Fatalf("4 small lanes should fit: %v", err)
	}
	if err := Validate(Config{K: 7, BufLines: 96, DoubleBuffer: true, Channels: 2}); err == nil {
		t.Fatal("2 paper-sized lanes cannot fit in 256 lines; want error")
	}
}

// TestIssueDrivesOnlyItsOwnLane: an issue drives its lane's previous
// request and no other. A completed request's frame is recycled and
// reissued on another lane while the first lane still points at it; the
// next issue on the first lane must leave that other lane's request in
// flight instead of waiting for it.
func TestIssueDrivesOnlyItsOwnLane(t *testing.T) {
	const n, lines = 8, 64
	cfg := Config{K: 2, BufLines: 2, DoubleBuffer: true, Channels: 3}
	nbytes := lines * scc.CacheLine
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	pay := make([]byte, 4*nbytes)
	for j := range pay {
		pay[j] = byte(j*5 + 1)
	}
	chip.Private(0).Write(0, pay)
	chip.Run(func(c *rma.Core) {
		x := New(c, rcce.NewPort(c), cfg)
		a := x.IBcast(0, 0, lines) // lane 0
		a.Wait()
		b := x.IBcast(0, nbytes, lines)   // lane 1; recycles a's frame
		r := x.IBcast(0, 2*nbytes, lines) // lane 2, in a's frame
		if r != a || r.lane.idx != 2 {
			t.Fatalf("core %d: the third request did not reuse the first one's frame on lane 2", c.ID())
		}
		d := x.IBcast(0, 3*nbytes, lines) // lane 0 again
		if r.done {
			t.Errorf("core %d: issuing on lane 0 drove lane 2's request to completion", c.ID())
		}
		b.Wait()
		r.Wait()
		d.Wait()
		x.Finish()
	})
	got := make([]byte, len(pay))
	for core := 0; core < n; core++ {
		chip.Private(core).Read(got, 0, len(got))
		if !bytes.Equal(got, pay) {
			t.Fatalf("core %d: payloads corrupted", core)
		}
	}
}
