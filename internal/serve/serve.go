// Package serve is the multi-tenant serving runtime: the scheduler that
// turns the simulated chip from a one-shot SPMD program into a
// long-running service under load. M independent tenants — each a job
// queue fed by a recorded trace (internal/workload) or a synthetic
// generator — issue streams of collective requests onto one System; the
// runtime admits them against a bounded per-tenant queue, batches
// compatible same-op requests into single collectives, spreads
// concurrent batches over the progress engine's MPB lanes
// (Options.Channels), and arbitrates between tenants with a fairness
// policy (round-robin or weighted deficit round-robin).
//
// Everything runs on simulated virtual time, and determinism is the
// design constraint that shapes the architecture: the simulator's
// collectives are chip-wide SPMD calls, so every core must issue the
// identical sequence. The runtime therefore runs one *scheduler replica
// per core* — identical deterministic state machines whose decisions
// derive only from common knowledge: the stream descriptions (plain
// data, identical everywhere) and a per-round epoch agreed on with a
// max-allreduce of the cores' clocks (Runner.SyncMaxUs). No replica
// ever consults its own local clock for a decision, because local
// clocks diverge across cores after every collective; the epoch is the
// one clock value all replicas share. Two runs of the same mix are
// byte-identical — the conformance suite in the root package holds the
// runtime to that.
//
// The scheduler itself (sched.go) is simulator-free: it drives a small
// per-core Runner interface that the public API (System.Serve in the
// root package) and the harness's pooled-chip path both implement, and
// that the property tests replace with an in-memory fake. Stream
// adapters (streams.go) build request streams from workload traces and
// seeded synthetic generators; format.go gives the ocserve text grammar
// for serving specs; metrics.go aggregates per-tenant completion
// latency, throughput and starvation counters.
package serve

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// Policies. PolicyRoundRobin cycles a pointer over the tenants,
// granting the next non-empty queue each batch slot. PolicyWeighted is
// stride scheduling: each tenant carries a virtual pass, the backlogged
// tenant with the least pass wins each slot (ties to the lowest id),
// and every dispatched request advances the winner's pass inversely to
// its weight — long-run dispatch shares converge to the weights, and a
// backlogged tenant always wins eventually because every grant pushes
// the other passes up (the no-starvation property test holds the
// scheduler to it).
const (
	// PolicyRoundRobin grants batch slots to tenants cyclically.
	PolicyRoundRobin = "rr"
	// PolicyWeighted grants batch slots by weighted deficit counters.
	PolicyWeighted = "wrr"
)

// Defaults for zero-valued Config fields.
const (
	// DefaultQueueBound is the per-tenant admission bound.
	DefaultQueueBound = 64
	// DefaultMaxBatch caps how many requests one batch coalesces.
	DefaultMaxBatch = 8
	// DefaultMaxBatchLines caps one batch's summed payload in cache
	// lines (a single larger request still dispatches, alone).
	DefaultMaxBatchLines = 256
)

// Bounds on configuration values, mirroring the workload trace bounds
// so every downstream computation (layout sizing, credit arithmetic)
// stays far from overflow.
const (
	// MaxQueueBound caps the per-tenant admission queue.
	MaxQueueBound = 1 << 20
	// MaxMaxBatch caps the per-batch request count.
	MaxMaxBatch = 1 << 10
	// MaxLanes caps the concurrent-batch fan-out.
	MaxLanes = 64
	// MaxWeight caps a tenant's fairness weight.
	MaxWeight = 1 << 20
	// MaxTenantName caps a tenant name's length in the ocserve format.
	MaxTenantName = 64
)

// Config tunes the serving runtime. The zero value is a valid
// single-lane round-robin configuration with the defaults above.
type Config struct {
	// Policy is the fairness policy, PolicyRoundRobin or PolicyWeighted;
	// "" means round-robin.
	Policy string
	// QueueBound is the per-tenant admission bound: arrivals beyond a
	// full queue are rejected (counted, never retried). 0 means
	// DefaultQueueBound.
	QueueBound int
	// MaxBatch caps how many compatible requests one batch coalesces
	// into a single collective. 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxBatchLines caps a batch's summed payload in cache lines; a
	// single request may exceed it and then dispatches alone. 0 means
	// DefaultMaxBatchLines.
	MaxBatchLines int
	// Lanes is how many batches one dispatch round may put in flight
	// concurrently over the progress engine's MPB lanes; it must not
	// exceed the chip's Options.Channels. 0 means 1 (System.Serve
	// defaults it to the chip's channel count instead).
	Lanes int
}

// Resolved accessors for the zero-means-default fields.

func (c Config) policy() string {
	if c.Policy == "" {
		return PolicyRoundRobin
	}
	return c.Policy
}

func (c Config) queueBound() int {
	if c.QueueBound == 0 {
		return DefaultQueueBound
	}
	return c.QueueBound
}

func (c Config) maxBatch() int {
	if c.MaxBatch == 0 {
		return DefaultMaxBatch
	}
	return c.MaxBatch
}

func (c Config) maxBatchLines() int {
	if c.MaxBatchLines == 0 {
		return DefaultMaxBatchLines
	}
	return c.MaxBatchLines
}

func (c Config) lanes() int {
	if c.Lanes == 0 {
		return 1
	}
	return c.Lanes
}

// Validate checks the configuration's static invariants.
func (c Config) Validate() error {
	switch c.Policy {
	case "", PolicyRoundRobin, PolicyWeighted:
	default:
		return fmt.Errorf("serve: unknown policy %q (want %q or %q)", c.Policy, PolicyRoundRobin, PolicyWeighted)
	}
	if c.QueueBound < 0 || c.QueueBound > MaxQueueBound {
		return fmt.Errorf("serve: queue bound %d out of range [0, %d]", c.QueueBound, MaxQueueBound)
	}
	if c.MaxBatch < 0 || c.MaxBatch > MaxMaxBatch {
		return fmt.Errorf("serve: max batch %d out of range [0, %d]", c.MaxBatch, MaxMaxBatch)
	}
	if c.MaxBatchLines < 0 || c.MaxBatchLines > workload.MaxLines {
		return fmt.Errorf("serve: max batch lines %d out of range [0, %d]", c.MaxBatchLines, workload.MaxLines)
	}
	if c.Lanes < 0 || c.Lanes > MaxLanes {
		return fmt.Errorf("serve: lanes %d out of range [0, %d]", c.Lanes, MaxLanes)
	}
	return nil
}

// Req is one collective request of a tenant's stream.
type Req struct {
	// Op is the collective operation, one of workload.Ops().
	Op string
	// Root is the rooted operations' root core; allreduce and allgather
	// ignore it (write 0).
	Root int
	// Lines is the payload in 32-byte cache lines: the message for
	// bcast/reduce/allreduce, the per-core block for scatter/gather/
	// allgather.
	Lines int
	// GapUs is the open-loop inter-arrival gap in microseconds since the
	// tenant's previous request (since time zero for the first). Offered
	// load scales by shrinking gaps (ScaleGaps), never by waiting for
	// completions — rejected or slow service does not slow arrivals.
	GapUs float64
}

// Validate checks one request's invariants (workload trace bounds).
func (r Req) Validate() error {
	if workload.OpOf(r.Op) == nil {
		return fmt.Errorf("unknown op %q", r.Op)
	}
	if r.Root < 0 || r.Root > workload.MaxRoot {
		return fmt.Errorf("root %d out of range [0, %d]", r.Root, workload.MaxRoot)
	}
	if r.Lines < 1 || r.Lines > workload.MaxLines {
		return fmt.Errorf("lines %d out of range [1, %d]", r.Lines, workload.MaxLines)
	}
	if math.IsNaN(r.GapUs) || math.IsInf(r.GapUs, 0) {
		return fmt.Errorf("gap %v is not finite", r.GapUs)
	}
	if r.GapUs < 0 || r.GapUs > workload.MaxGapUs {
		return fmt.Errorf("gap %v out of range [0, %g]", r.GapUs, workload.MaxGapUs)
	}
	return nil
}

// Stream is one tenant's job queue: its identity, fairness weight and
// open-loop request arrivals.
type Stream struct {
	// Tenant names the stream in metrics and the ocserve format
	// ([A-Za-z0-9._-]+, at most MaxTenantName bytes).
	Tenant string
	// Weight is the tenant's share under PolicyWeighted; 0 means 1.
	Weight int
	// Reqs are the arrivals in stream order.
	Reqs []Req
}

// weight resolves the zero-means-one default.
func (s Stream) weight() int {
	if s.Weight == 0 {
		return 1
	}
	return s.Weight
}

// ValidTenantName reports whether name is usable as a tenant id:
// non-empty, at most MaxTenantName bytes, [A-Za-z0-9._-] only (so the
// ocserve text format round-trips it).
func ValidTenantName(name string) bool {
	if name == "" || len(name) > MaxTenantName {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ValidateStreams checks a tenant mix against a chip of n cores: at
// least one tenant, unique well-formed names, bounded weights, and
// every request valid with rooted roots inside the chip.
func ValidateStreams(streams []Stream, n int) error {
	if len(streams) == 0 {
		return fmt.Errorf("serve: no tenant streams")
	}
	seen := make(map[string]bool, len(streams))
	for t, s := range streams {
		if !ValidTenantName(s.Tenant) {
			return fmt.Errorf("serve: stream %d: invalid tenant name %q", t, s.Tenant)
		}
		if seen[s.Tenant] {
			return fmt.Errorf("serve: duplicate tenant %q", s.Tenant)
		}
		seen[s.Tenant] = true
		if s.Weight < 0 || s.Weight > MaxWeight {
			return fmt.Errorf("serve: tenant %q: weight %d out of range [0, %d]", s.Tenant, s.Weight, MaxWeight)
		}
		if len(s.Reqs) == 0 {
			return fmt.Errorf("serve: tenant %q has no requests", s.Tenant)
		}
		for i, r := range s.Reqs {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("serve: tenant %q request %d: %w", s.Tenant, i, err)
			}
			if workload.OpOf(r.Op).Rooted && r.Root >= n {
				return fmt.Errorf("serve: tenant %q request %d: root %d outside the %d-core chip", s.Tenant, i, r.Root, n)
			}
		}
	}
	return nil
}
