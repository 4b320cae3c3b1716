// Package trace collects per-core data-movement counters. The paper's §5
// analysis explains OC-Bcast's advantage by counting off-chip and MPB
// accesses on the critical path; these counters let tests and experiments
// verify those counts directly on the simulator.
package trace

import "fmt"

// CoreCounters tallies one core's memory operations, in cache lines.
type CoreCounters struct {
	MPBReadLines   int64 // cache lines read from any MPB
	MPBWriteLines  int64 // cache lines written to any MPB
	MemReadLines   int64 // cache lines read from private off-chip memory
	MemWriteLines  int64 // cache lines written to private off-chip memory
	CacheHitLines  int64 // private-memory reads served by the L1 model
	FlagSets       int64 // 1-line flag writes
	FlagWaits      int64 // flag wait operations
	FlagPolls      int64 // failed non-blocking flag probes (cost no time)
	PutOps, GetOps int64 // whole put/get invocations
}

// Add accumulates other into c.
func (c *CoreCounters) Add(other CoreCounters) {
	c.MPBReadLines += other.MPBReadLines
	c.MPBWriteLines += other.MPBWriteLines
	c.MemReadLines += other.MemReadLines
	c.MemWriteLines += other.MemWriteLines
	c.CacheHitLines += other.CacheHitLines
	c.FlagSets += other.FlagSets
	c.FlagWaits += other.FlagWaits
	c.FlagPolls += other.FlagPolls
	c.PutOps += other.PutOps
	c.GetOps += other.GetOps
}

// String summarizes the counters.
func (c CoreCounters) String() string {
	return fmt.Sprintf("mpbR=%d mpbW=%d memR=%d memW=%d l1hit=%d flagSet=%d flagWait=%d flagPoll=%d put=%d get=%d",
		c.MPBReadLines, c.MPBWriteLines, c.MemReadLines, c.MemWriteLines,
		c.CacheHitLines, c.FlagSets, c.FlagWaits, c.FlagPolls, c.PutOps, c.GetOps)
}

// Sum totals a slice of per-core counters.
func Sum(cs []CoreCounters) CoreCounters {
	var total CoreCounters
	for _, c := range cs {
		total.Add(c)
	}
	return total
}
