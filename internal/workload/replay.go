package workload

import (
	"fmt"

	"repro/internal/scc"
)

// Replay maps a trace onto a chip. The mapping is a fixed, documented
// contract — the conformance suite replays traces and issues the same
// calls by hand, demanding bit-identical buffers and completion times —
// and the hot loop is allocation-free so long replays stay within the
// simulator's steady-state allocation budget.
//
// Per record, in trace order, every core:
//
//  1. charges the issue-time delta as local compute: Compute(DeltaUs)
//     when DeltaUs > 0;
//  2. with ComputeUs == 0, runs the blocking collective (Runner.Run);
//  3. with ComputeUs > 0, issues the non-blocking collective
//     (Runner.Issue), computes the gap in Polls equal slices with a
//     Pending.Test poll after each slice, and Waits if still incomplete —
//     the fig-overlap interleaving, driven by the trace.
//
// A replay begins with one Barrier so every core starts the schedule
// aligned, mirroring an application entering its main loop together.

// Runner is the per-core collective surface a replay drives. The public
// API adapts *ocbcast.Core to it (System.Replay) and the harness adapts a
// pooled chip's algsel environment; unit tests use an in-memory fake.
type Runner interface {
	// Compute advances the core's virtual clock by us microseconds of
	// local work.
	Compute(us float64)
	// Barrier synchronizes all cores of the chip.
	Barrier()
	// NowUs reports the core's virtual clock in microseconds.
	NowUs() float64
	// Run executes record r's collective, blocking, with the payload at
	// byte address addr (scratch is same-size staging the two-sided
	// reductions may clobber).
	Run(r Record, addr, scratch int)
	// Issue starts record r's collective on the non-blocking
	// progress-engine path and returns its handle.
	Issue(r Record, addr, scratch int) Pending
}

// Pending is an in-flight non-blocking collective (occoll.Request
// satisfies it).
type Pending interface {
	// Test advances the protocol without blocking; true means complete.
	Test() bool
	// Wait blocks until the collective completes.
	Wait()
}

// Layout fixes where a replay stages each record's payload in private
// memory, so a trace replays onto deterministic addresses every caller
// (replayer, conformance suite, examples) can reconstruct. Records rotate
// through Slots equal regions — a record's buffers are never reused while
// it could still be in flight — with one shared scratch region after them
// for the two-sided reductions.
type Layout struct {
	// N is the chip's core count the layout was computed for.
	N int
	// SlotBytes is the size of one record region: the largest
	// Op.Region of any record, cache-line aligned.
	SlotBytes int
	// Slots is the number of rotating record regions.
	Slots int
	// ScratchAddr is the shared scratch region's base address; it is
	// SlotBytes long.
	ScratchAddr int
}

// layoutSlots is the rotation depth. Replay keeps at most one collective
// in flight, so two regions suffice for correctness; four keep a slot
// idle for a full extra round as margin.
const layoutSlots = 4

// LayoutFor computes the replay layout of a valid trace on an n-core
// chip.
func LayoutFor(t *Trace, n int) Layout {
	maxRegion := 1
	for _, r := range t.Records {
		maxRegion = max(maxRegion, OpOf(r.Op).Region(n, r.Lines))
	}
	slot := maxRegion * scc.CacheLine
	return Layout{
		N:           n,
		SlotBytes:   slot,
		Slots:       layoutSlots,
		ScratchAddr: layoutSlots * slot,
	}
}

// Addr reports the base address record i's payload is staged at.
func (l Layout) Addr(i int) int { return (i % l.Slots) * l.SlotBytes }

// TotalBytes reports the private-memory footprint of a replay: the
// rotating slots plus the scratch region.
func (l Layout) TotalBytes() int { return (l.Slots + 1) * l.SlotBytes }

// ReplayOptions tune a replay.
type ReplayOptions struct {
	// Polls is the number of compute slices (each followed by a Test
	// poll) an overlapped record's compute gap is cut into; 0 means
	// DefaultPolls.
	Polls int
	// RecordDoneUs, when non-nil, receives each record's completion
	// timestamp on this core (len must be >= len(trace.Records)). The
	// conformance suite uses it; leave nil to skip the bookkeeping.
	RecordDoneUs []float64
}

// DefaultPolls is the default overlap slicing: compute gaps split into 4
// slices with a progress poll after each.
const DefaultPolls = 4

// Result is one core's replay outcome.
type Result struct {
	// StartUs is the core's clock right after the opening barrier;
	// FinishUs its clock after the last record completed.
	StartUs, FinishUs float64
}

// Bounds reports a chip's replay in virtual time from its cores'
// results: the earliest start and the latest finish.
func Bounds(res []Result) (firstStartUs, lastFinishUs float64) {
	firstStartUs, lastFinishUs = res[0].StartUs, res[0].FinishUs
	for _, r := range res[1:] {
		firstStartUs = min(firstStartUs, r.StartUs)
		lastFinishUs = max(lastFinishUs, r.FinishUs)
	}
	return firstStartUs, lastFinishUs
}

// Replay executes the trace on one core. Every core of the chip must call
// it with the same trace, layout and options (it is a chip-wide SPMD
// operation, like the collectives themselves). The caller is responsible
// for having validated the trace against the chip (Trace.ValidateFor);
// Replay itself panics on a layout/trace mismatch as that is a
// programming error.
func Replay(run Runner, t *Trace, l Layout, o ReplayOptions) Result {
	if o.RecordDoneUs != nil && len(o.RecordDoneUs) < len(t.Records) {
		panic(fmt.Sprintf("workload: RecordDoneUs holds %d of %d records", len(o.RecordDoneUs), len(t.Records)))
	}
	polls := o.Polls
	if polls <= 0 {
		polls = DefaultPolls
	}
	run.Barrier()
	res := Result{StartUs: run.NowUs()}
	for i := range t.Records {
		r := &t.Records[i]
		if r.DeltaUs > 0 {
			run.Compute(r.DeltaUs)
		}
		addr := l.Addr(i)
		if r.ComputeUs > 0 {
			p := run.Issue(*r, addr, l.ScratchAddr)
			slice := r.ComputeUs / float64(polls)
			done := false
			for j := 0; j < polls; j++ {
				run.Compute(slice)
				if !done && p.Test() {
					done = true
				}
			}
			if !done {
				p.Wait()
			}
		} else {
			run.Run(*r, addr, l.ScratchAddr)
		}
		if o.RecordDoneUs != nil {
			o.RecordDoneUs[i] = run.NowUs()
		}
	}
	res.FinishUs = run.NowUs()
	return res
}
