package workload

// OpCounts tallies records by operation, keyed by op name.
func (t *Trace) OpCounts() map[string]int {
	out := make(map[string]int, len(ops))
	for _, r := range t.Records {
		out[r.Op]++
	}
	return out
}

// DurationUs sums the trace's recorded application time — every issue
// delta and compute gap — the lower bound a replay's makespan approaches
// when the collectives are free.
func (t *Trace) DurationUs() float64 {
	var sum float64
	for _, r := range t.Records {
		sum += r.DeltaUs + r.ComputeUs
	}
	return sum
}
