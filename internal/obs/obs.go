// Package obs is the simulator's observability layer: a structured
// timeline of virtual-time events — spans, instants, async request
// spans and counter samples — recorded while a simulation runs, plus
// the analyses built on that stream (per-core time attribution,
// resource-utilization reports, Chrome/Perfetto trace export).
//
// The paper's argument (§5) is an accounting one: OC-Bcast wins because
// of what sits on the critical path. The aggregate counters in
// internal/trace verify the *counts*; this package shows *where the
// simulated time goes* — MPB transfer vs off-chip memory vs flag
// signalling vs flag-spin — per core and per collective.
//
// The package is a dependency leaf: it deliberately does not import
// internal/sim (which imports it), so timestamps are plain int64
// picoseconds (Time), bit-compatible with sim.Time.
//
// Recording discipline: a Recorder is attached to at most one simulated
// chip, whose engine serializes all cores (exactly one core's code runs
// at any instant), so Recorder methods need no locking; every emission site
// guards with a nil check, making a disabled recorder literally one
// pointer comparison on the hot path. Emitters must keep synchronous
// Begin/End spans properly nested per core and per-core timestamps
// nondecreasing — Timeline.Validate checks both.
package obs

import (
	"fmt"
	"strings"
)

// Time is a virtual timestamp in integer picoseconds (the same unit and
// representation as sim.Time, without importing it).
type Time = int64

// microsecond is one µs in picoseconds, for formatting.
const microsecond = 1e6

// Kind classifies a timeline event.
type Kind uint8

// Event kinds. Begin/End delimit synchronous spans on a core's track
// (they must nest, like a call stack); AsyncBegin/AsyncEnd delimit
// request-scoped spans that may overlap on one core (matched by ID);
// Instant marks a point; Counter samples a named value.
const (
	KindBegin Kind = iota
	KindEnd
	KindInstant
	KindAsyncBegin
	KindAsyncEnd
	KindCounter
)

// letter is the event kind's Chrome-trace phase letter.
func (k Kind) letter() string {
	switch k {
	case KindBegin:
		return "B"
	case KindEnd:
		return "E"
	case KindInstant:
		return "i"
	case KindAsyncBegin:
		return "b"
	case KindAsyncEnd:
		return "e"
	default:
		return "C"
	}
}

// Bucket is the time-attribution class of a leaf span: every simulated
// nanosecond a core's clock advances inside a span is charged to the
// span's bucket (innermost span wins), so the per-core buckets sum
// exactly to the core's total simulated time.
type Bucket uint8

// Attribution buckets. BucketOther holds time not claimed by any leaf
// span (container spans such as API-level collective calls, and gaps) —
// zero in a fully instrumented run.
const (
	BucketOther Bucket = iota
	// BucketCompute is local computation (rma.Core.Compute), including
	// the charged reduction arithmetic.
	BucketCompute
	// BucketMPB is MPB-to-MPB data movement: puts, gets and in-MPB
	// combining gets that never leave the on-die network.
	BucketMPB
	// BucketMem is data movement with an off-chip end: memory-to-MPB
	// puts and MPB-to-memory gets.
	BucketMem
	// BucketFlag is synchronization signalling: flag writes, remote flag
	// reads and IPI sends.
	BucketFlag
	// BucketWait is time spent waiting: flag-spin (blocked on an MPB
	// line plus the final successful poll read) and IPI waits.
	BucketWait
	// NumBuckets bounds Bucket values for array-indexed tallies.
	NumBuckets
)

// String names the bucket as the attribution table prints it.
func (b Bucket) String() string {
	switch b {
	case BucketCompute:
		return "compute"
	case BucketMPB:
		return "mpb"
	case BucketMem:
		return "mem"
	case BucketFlag:
		return "flag"
	case BucketWait:
		return "wait"
	default:
		return "other"
	}
}

// Arg is one key/value annotation on an event. A zero Arg (empty key)
// means "unused".
type Arg struct {
	Key string
	Val int64
}

// Event is one timeline record. Events are small fixed-size values so
// recording is an amortized slice append with no per-event allocation
// (names and categories are static strings at every emission site).
type Event struct {
	Kind   Kind
	Bucket Bucket
	Core   int32
	Time   Time
	Cat    string
	Name   string
	// Str is an optional string-valued annotation (e.g. the resolved
	// algorithm choice on an API span).
	Str string
	// ID matches AsyncBegin/AsyncEnd pairs, and carries the sampled
	// value for KindCounter events.
	ID int64
	// A0 and A1 are optional integer annotations.
	A0, A1 Arg
}

// String formats the event for diagnostics (deadlock reports, tests):
// e.g. "[1617.671µs] B rma/put.mem dst=0 lines=96".
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%.4fµs] %s %s/%s", float64(e.Time)/microsecond, e.Kind.letter(), e.Cat, e.Name)
	if e.Str != "" {
		fmt.Fprintf(&sb, " %s", e.Str)
	}
	if e.Kind == KindCounter {
		fmt.Fprintf(&sb, " value=%d", e.ID)
	}
	for _, a := range [2]Arg{e.A0, e.A1} {
		if a.Key != "" {
			fmt.Fprintf(&sb, " %s=%d", a.Key, a.Val)
		}
	}
	return sb.String()
}

// Recorder collects the event stream of one simulated chip. The zero
// value is NOT usable; call NewRecorder. A nil *Recorder is the
// "tracing disabled" state every instrumentation site checks for.
type Recorder struct {
	events []Event
	nextID int64
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Emit appends an arbitrary event. Prefer the typed helpers below for
// the common kinds; Emit exists for spans that need every field (e.g.
// API spans carrying a Str annotation).
func (r *Recorder) Emit(ev Event) {
	r.events = append(r.events, ev)
}

// Begin opens a synchronous span on core's track at time t. Spans on one
// core must nest; close with End.
func (r *Recorder) Begin(core int, t Time, cat, name string, b Bucket, a0, a1 Arg) {
	r.events = append(r.events, Event{
		Kind: KindBegin, Bucket: b, Core: int32(core), Time: t,
		Cat: cat, Name: name, A0: a0, A1: a1,
	})
}

// End closes the innermost open synchronous span on core's track at t.
func (r *Recorder) End(core int, t Time) {
	r.events = append(r.events, Event{Kind: KindEnd, Core: int32(core), Time: t})
}

// Instant records a point event on core's track.
func (r *Recorder) Instant(core int, t Time, cat, name string, a0, a1 Arg) {
	r.events = append(r.events, Event{
		Kind: KindInstant, Core: int32(core), Time: t,
		Cat: cat, Name: name, A0: a0, A1: a1,
	})
}

// AsyncID allocates a fresh id for an AsyncBegin/AsyncEnd pair.
func (r *Recorder) AsyncID() int64 {
	r.nextID++
	return r.nextID
}

// AsyncBegin opens an async (request-scoped) span with the given id.
// Async spans may overlap freely on one core; close with AsyncEnd.
func (r *Recorder) AsyncBegin(id int64, core int, t Time, cat, name string, a0, a1 Arg) {
	r.events = append(r.events, Event{
		Kind: KindAsyncBegin, Core: int32(core), Time: t,
		Cat: cat, Name: name, ID: id, A0: a0, A1: a1,
	})
}

// AsyncEnd closes the async span with the given id.
func (r *Recorder) AsyncEnd(id int64, core int, t Time, cat, name string) {
	r.events = append(r.events, Event{
		Kind: KindAsyncEnd, Core: int32(core), Time: t,
		Cat: cat, Name: name, ID: id,
	})
}

// Counter samples a named per-core value (e.g. lanes in flight).
func (r *Recorder) Counter(core int, t Time, cat, name string, value int64) {
	r.events = append(r.events, Event{
		Kind: KindCounter, Core: int32(core), Time: t,
		Cat: cat, Name: name, ID: value,
	})
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Tail returns up to k most recent events recorded for the given core,
// oldest first — the context the engine attaches to deadlock reports.
func (r *Recorder) Tail(core, k int) []Event {
	var out []Event
	for i := len(r.events) - 1; i >= 0 && len(out) < k; i-- {
		if r.events[i].Core == int32(core) {
			out = append(out, r.events[i])
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
