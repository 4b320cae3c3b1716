package obs

import "fmt"

// ResClass says what kind of hardware resource a ResUsage row describes.
type ResClass uint8

// Resource classes reported by Timeline.Resources.
const (
	// ResMPBPort is one tile's message-passing-buffer port.
	ResMPBPort ResClass = iota
	// ResNoCLink is one directed mesh link (detailed NoC model only).
	ResNoCLink
	// ResMemory is the off-chip memory path of one core.
	ResMemory
)

// String names the resource class.
func (c ResClass) String() string {
	switch c {
	case ResMPBPort:
		return "mpb-port"
	case ResNoCLink:
		return "noc-link"
	default:
		return "memory"
	}
}

// ResUsage is the cumulative utilization of one simulated resource,
// gathered after a run from the FIFO servers' own counters.
type ResUsage struct {
	Class        ResClass
	Name         string
	Reservations int64
	Units        int64
	Busy         Time // total time the server was serving
	Queued       Time // total time reservations spent waiting
}

// Utilization reports Busy as a fraction of the elapsed horizon.
func (u ResUsage) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(u.Busy) / float64(horizon)
}

// Timeline is the complete observability record of one simulation run:
// the ordered event stream, the end-of-run resource usage snapshot, and
// the simulated horizon.
type Timeline struct {
	NCores    int
	Events    []Event
	Resources []ResUsage
	// End is the simulated end of the run: the maximum event timestamp.
	End Time
}

// Capture freezes a recorder's stream into a Timeline. The recorder
// stays usable; subsequent events are not reflected in the capture.
func Capture(r *Recorder, ncores int, resources []ResUsage) *Timeline {
	tl := &Timeline{NCores: ncores, Events: r.events, Resources: resources}
	for _, ev := range tl.Events {
		if ev.Time > tl.End {
			tl.End = ev.Time
		}
	}
	return tl
}

// CoreAttribution is one core's simulated time split into buckets.
// Buckets sum exactly to Total by construction (see Attribution).
type CoreAttribution struct {
	Core    int
	Total   Time
	Buckets [NumBuckets]Time
}

// Attribution computes the per-core time breakdown from the span
// stream. Each core's track is replayed with a cursor and a stack of
// open synchronous spans: the interval between consecutive events is
// charged to the innermost open span's bucket, or BucketOther when no
// span is open. The cursor starts at 0 and ends at the core's last
// event, so a core's buckets always sum exactly to its Total.
//
// Emitters put the span structure to work: waiting ops (WaitFlagGE/EQ) open
// their span *before* blocking and close it after waking, so blocked
// time lands in BucketWait; transfer ops open after argument validation
// and close at completion, so queueing inside the op is charged to the
// op's bucket. Container spans (API-level collectives) only claim time
// their leaf spans leave uncovered.
func (tl *Timeline) Attribution() []CoreAttribution {
	out := make([]CoreAttribution, tl.NCores)
	cursor := make([]Time, tl.NCores)
	stacks := make([][]Bucket, tl.NCores)
	for i := range out {
		out[i].Core = i
	}
	for _, ev := range tl.Events {
		c := int(ev.Core)
		if c < 0 || c >= tl.NCores {
			continue
		}
		a := &out[c]
		if d := ev.Time - cursor[c]; d > 0 {
			b := BucketOther
			if n := len(stacks[c]); n > 0 {
				b = stacks[c][n-1]
			}
			a.Buckets[b] += d
			a.Total += d
		}
		cursor[c] = ev.Time
		switch ev.Kind {
		case KindBegin:
			stacks[c] = append(stacks[c], ev.Bucket)
		case KindEnd:
			if n := len(stacks[c]); n > 0 {
				stacks[c] = stacks[c][:n-1]
			}
		}
	}
	return out
}

// Validate checks the structural invariants every emitter must uphold:
// per-core nondecreasing timestamps, balanced and properly nested
// Begin/End pairs, and matched async begin/end ids. It returns the
// first violation found, or nil.
func (tl *Timeline) Validate() error {
	last := make([]Time, tl.NCores)
	depth := make([]int, tl.NCores)
	asyncOpen := make(map[int64]Event)
	for i, ev := range tl.Events {
		c := int(ev.Core)
		if c < 0 || c >= tl.NCores {
			return fmt.Errorf("obs: event %d has core %d outside [0,%d)", i, c, tl.NCores)
		}
		if ev.Time < last[c] {
			return fmt.Errorf("obs: event %d (%s) goes back in time on core %d: %d < %d", i, ev, c, ev.Time, last[c])
		}
		last[c] = ev.Time
		switch ev.Kind {
		case KindBegin:
			depth[c]++
		case KindEnd:
			if depth[c] == 0 {
				return fmt.Errorf("obs: event %d: End with no open span on core %d", i, c)
			}
			depth[c]--
		case KindAsyncBegin:
			if prev, dup := asyncOpen[ev.ID]; dup {
				return fmt.Errorf("obs: event %d: async id %d already open (%s)", i, ev.ID, prev)
			}
			asyncOpen[ev.ID] = ev
		case KindAsyncEnd:
			if _, ok := asyncOpen[ev.ID]; !ok {
				return fmt.Errorf("obs: event %d: AsyncEnd for unopened id %d", i, ev.ID)
			}
			delete(asyncOpen, ev.ID)
		}
	}
	for c, d := range depth {
		if d != 0 {
			return fmt.Errorf("obs: core %d ends with %d unclosed span(s)", c, d)
		}
	}
	if len(asyncOpen) != 0 {
		for id, ev := range asyncOpen {
			return fmt.Errorf("obs: async span id %d never closed (%s)", id, ev)
		}
	}
	return nil
}
