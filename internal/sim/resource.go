package sim

// Resource models a FIFO server with a single queue, such as an MPB port
// or a memory controller. A request for n service units issued at time t
// begins service when the server becomes free and occupies it for
// n × unit. Resources introduce queueing delay only under concurrency;
// an uncontended request starts immediately.
//
// Because the engine schedules processes in global virtual-time order,
// reservations arrive in nondecreasing time order and a simple
// "next free time" register implements an exact FIFO queue.
//
// A Resource carries no name: whoever owns it (an MPB, a mesh link)
// names it when usage is reported, so embedding one by value costs its
// owner no allocation.
type Resource struct {
	unit Duration // service time per unit
	free Time     // next time the server is idle

	// Stats.
	reservations int64
	unitsServed  int64
	busyTime     Duration
	queuedTime   Duration
}

// NewResource creates a FIFO resource with the given per-unit service time.
func NewResource(unit Duration) *Resource {
	r := new(Resource)
	r.Init(unit)
	return r
}

// Init makes r an idle resource with the given per-unit service time,
// in place — for owners that embed a Resource by value.
func (r *Resource) Init(unit Duration) { *r = Resource{unit: unit} }

// Reserve books n service units starting no earlier than t and returns the
// time service completes. The caller decides how to combine the result
// with its analytic cost (typically a max).
func (r *Resource) Reserve(t Time, n int) (finish Time) {
	if n <= 0 {
		return t
	}
	return r.reserve(t, Duration(int64(n)*int64(r.unit)), int64(n))
}

// ReserveDur books an explicit service duration starting no earlier than t,
// for callers whose per-unit cost differs from the resource default (e.g.
// MPB ports charge reads and writes differently).
func (r *Resource) ReserveDur(t Time, service Duration) (finish Time) {
	if service <= 0 {
		return t
	}
	return r.reserve(t, service, 1)
}

func (r *Resource) reserve(t Time, service Duration, units int64) (finish Time) {
	start := t
	if r.free > start {
		start = r.free
	}
	finish = start + service
	r.free = finish

	r.reservations++
	r.unitsServed += units
	r.busyTime += service
	r.queuedTime += start - t
	return finish
}

// NextFree reports when the server next becomes idle.
func (r *Resource) NextFree() Time { return r.free }

// Stats reports cumulative usage counters: number of reservations, units
// served, total busy time, and total time requests spent queued.
func (r *Resource) Stats() (reservations, units int64, busy, queued Duration) {
	return r.reservations, r.unitsServed, r.busyTime, r.queuedTime
}

// Reset clears the server's schedule and statistics.
func (r *Resource) Reset() {
	r.free = 0
	r.reservations = 0
	r.unitsServed = 0
	r.busyTime = 0
	r.queuedTime = 0
}
