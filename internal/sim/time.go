// Package sim provides a deterministic discrete-event simulation engine
// — the substrate on which the paper's experimental methodology (§6.1:
// barrier-separated repetitions timed with the SCC's global counters) is
// reproduced exactly rather than statistically.
//
// Simulated cores run ordinary Go code on coroutines; a central
// scheduler admits exactly one core at a time — always the runnable core
// with the smallest virtual clock (ties broken by process id) — so
// simulation results are fully deterministic and timestamps taken on
// different cores are directly comparable, like the SCC's global
// hardware counters.
//
// The scheduler keeps runnable processes in an indexed binary min-heap
// keyed on (clock, id), maintained incrementally as processes block,
// wake and finish, so each scheduling decision is O(log n); a process
// that remains the earliest runnable continues without a coroutine
// switch. Both are pure wall-clock optimisations: the admission
// order is identical to scanning every process each step.
package sim

import "fmt"

// Time is a virtual timestamp in integer picoseconds. Table 1 of the paper
// expresses parameters in microseconds with 3 significant digits
// (e.g. Lhop = 0.005 µs); picosecond integers represent all of them exactly,
// so the scheduler never suffers floating-point drift.
type Time int64

// Duration is a virtual time span in picoseconds.
type Duration = Time

// Time unit constants.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros converts a duration in microseconds (as the paper reports
// parameters) to a Time.
func Micros(us float64) Time {
	return Time(us * float64(Microsecond))
}

// Microseconds reports t as a float64 number of microseconds, the unit used
// throughout the paper's tables and figures.
func (t Time) Microseconds() float64 {
	return float64(t) / float64(Microsecond)
}

// String formats the time in microseconds, matching the paper's unit.
func (t Time) String() string {
	return fmt.Sprintf("%.4fµs", t.Microseconds())
}

// maxTime is a sentinel larger than any reachable virtual time.
const maxTime = Time(1<<63 - 1)
