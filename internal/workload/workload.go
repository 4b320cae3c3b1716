// Package workload is the application layer of the reproduction: recorded
// collective traces and the machinery to replay them on the simulated
// chip. Where the harness (internal/harness) measures isolated calls the
// way the paper's figures do, workload asks the question an application
// programmer would — how fast does a whole program run — by representing a
// program as the schedule of collectives it issues:
//
//   - a Trace is a sequence of Records, each one collective call — its
//     operation, root, payload size in cache lines, the issue-time delta
//     since the previous call, and the compute gap available to overlap
//     with the collective (format.go gives the text grammar);
//   - Replay (replay.go) maps a trace onto any per-core collective surface
//     (a Runner): records without a compute gap run the blocking
//     collective, records with one drive the non-blocking issue/Test/Wait
//     path of the PR 4 progress engine, interleaving compute slices;
//   - the kernel generators (kernels.go) emit realistic synthetic traces —
//     data-parallel SGD, stencil halo exchange, MapReduce-style shuffle —
//     that the fig-apps experiment replays under paper-default vs "auto"
//     algorithm selection to validate the tuner on whole-application time.
//
// The package is deliberately free of simulator dependencies: traces are
// plain data, and Replay drives an interface the public API (System.Replay
// in the root package) and the harness both implement.
package workload

import (
	"fmt"
	"math"
)

// The collective operations a trace record may name. They are also the
// operation names of the algorithm registry (internal/algsel).
const (
	OpBcast     = "bcast"
	OpReduce    = "reduce"
	OpAllReduce = "allreduce"
	OpScatter   = "scatter"
	OpGather    = "gather"
	OpAllGather = "allgather"
)

// Op is one collective operation's entry in the op table: what a call
// of it addresses in each core's private memory. The entry is a contract
// every registered algorithm of the operation keeps (FuzzFootprint in
// the root package checks it), so drivers size and stage regions from it
// before a policy picks the algorithm. A call changes no byte outside
// its region — Region lines at addr — and, for the reductions, a
// same-size scratch. Only the operation's result is guaranteed: on a
// core that is not the root, the two-sided reduce, scatter and gather
// stage what they relay in the region (reduce in the scratch too).
type Op struct {
	Name string
	// Rooted ops address a root; the others ignore Record.Root.
	Rooted bool
	// Blocks ops address n per-core blocks of Lines each, the others
	// one buffer of Lines.
	Blocks bool
	// input is which cores supply input, and where (see InputAt).
	input input
}

// input is where a call's input sits.
type input uint8

const (
	fromRoot     input = iota // the root's region (bcast, scatter)
	fromEach                  // every core's block 0 (the reductions)
	fromOwnBlock              // every core's block id (gather, allgather)
)

// ops is the op table, in canonical order.
var ops = [...]Op{
	{Name: OpBcast, Rooted: true, input: fromRoot},
	{Name: OpReduce, Rooted: true, input: fromEach},
	{Name: OpAllReduce, input: fromEach},
	{Name: OpScatter, Rooted: true, Blocks: true, input: fromRoot},
	{Name: OpGather, Rooted: true, Blocks: true, input: fromOwnBlock},
	{Name: OpAllGather, Blocks: true, input: fromOwnBlock},
}

// Ops lists the valid record operations in canonical order.
func Ops() []string {
	out := make([]string, len(ops))
	for i := range ops {
		out[i] = ops[i].Name
	}
	return out
}

// OpOf returns the table entry of the named operation (read-only), nil
// when no operation has that name.
func OpOf(name string) *Op {
	for i := range ops {
		if ops[i].Name == name {
			return &ops[i]
		}
	}
	return nil
}

// Region is the size in lines of a call's region on an n-core chip.
func (o *Op) Region(n, lines int) int {
	if o.Blocks {
		return n * lines
	}
	return lines
}

// InputAt returns where core id's input sits in its region, in lines
// from addr; count is 0 on a core that supplies none.
func (o *Op) InputAt(n, id, root, lines int) (off, count int) {
	switch o.input {
	case fromRoot:
		if id == root {
			return 0, o.Region(n, lines)
		}
		return 0, 0
	case fromOwnBlock:
		return id * lines, lines
	}
	return 0, lines
}

// Record bounds keep every arithmetic downstream of a parsed trace (layout
// sizing, virtual-clock advances) far from integer or float overflow, so a
// hostile trace can fail validation but never corrupt a replay.
const (
	// MaxLines caps one record's payload at 1 Mi cache lines (32 MiB).
	MaxLines = 1 << 20
	// MaxRoot caps the root id; replay additionally requires root < N.
	MaxRoot = 1 << 20
	// MaxGapUs caps DeltaUs and ComputeUs at 1e9 µs (~17 simulated
	// minutes) per record.
	MaxGapUs = 1e9
)

// Record is one collective call of a recorded trace.
type Record struct {
	// Op is the collective operation, one of Ops().
	Op string
	// Root is the rooted operations' root core; allreduce and allgather
	// ignore it (serialize it as 0 for those).
	Root int
	// Lines is the payload size in 32-byte cache lines: the message for
	// bcast/reduce/allreduce, the per-core block for scatter/gather/
	// allgather.
	Lines int
	// DeltaUs is the issue-time delta: microseconds of application time
	// between the previous record's issue point and this record's issue
	// point that the replayer charges as local compute before issuing.
	DeltaUs float64
	// ComputeUs is the compute gap: microseconds of application work that
	// may overlap this collective. Zero replays the blocking call; a
	// positive gap replays the non-blocking twin, computing in slices
	// with progress-engine polls in between (see Replay).
	ComputeUs float64
}

// Validate checks one record's invariants — a known op, bounded
// non-negative fields, finite gaps.
func (r Record) Validate() error {
	if OpOf(r.Op) == nil {
		return fmt.Errorf("unknown op %q", r.Op)
	}
	if r.Root < 0 || r.Root > MaxRoot {
		return fmt.Errorf("root %d out of range [0, %d]", r.Root, MaxRoot)
	}
	if r.Lines < 1 || r.Lines > MaxLines {
		return fmt.Errorf("lines %d out of range [1, %d]", r.Lines, MaxLines)
	}
	if err := validGap("delta", r.DeltaUs); err != nil {
		return err
	}
	return validGap("compute", r.ComputeUs)
}

// validGap bounds one time field: finite, non-negative, under MaxGapUs.
func validGap(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s %v is not finite", name, v)
	}
	if v < 0 || v > MaxGapUs {
		return fmt.Errorf("%s %v out of range [0, %g]", name, v, MaxGapUs)
	}
	return nil
}

// Trace is a recorded schedule of collective calls, issued in order by
// every core of the chip (SPMD, like the collectives themselves).
type Trace struct {
	// Records are the calls in issue order.
	Records []Record
}

// Validate checks every record; the error names the first offending
// record by index.
func (t *Trace) Validate() error {
	if len(t.Records) == 0 {
		return fmt.Errorf("workload: trace has no records")
	}
	for i, r := range t.Records {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("workload: record %d: %w", i, err)
		}
	}
	return nil
}

// ValidateFor checks the trace against a chip of n cores: every record
// must be valid and every rooted record's root must exist.
func (t *Trace) ValidateFor(n int) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for i, r := range t.Records {
		if OpOf(r.Op).Rooted && r.Root >= n {
			return fmt.Errorf("workload: record %d: root %d outside the %d-core chip", i, r.Root, n)
		}
	}
	return nil
}

// MaxLines reports the largest record payload, 0 for an empty trace.
func (t *Trace) MaxLines() int {
	max := 0
	for _, r := range t.Records {
		if r.Lines > max {
			max = r.Lines
		}
	}
	return max
}
