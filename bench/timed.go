package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	// warmupOps run before the first timed op of every set-up, so pools,
	// the heap and lazily built state are warm.
	warmupOps = 10
	// setupRepeats is how often a run sets up; setup_s is the median, so
	// one cold first pass does not decide it.
	setupRepeats = 5
	// timedSegments is how many equal parts a timed run is cut into.
	timedSegments = 5
)

// segment is one part of a timed run: per verified op, the host time of
// the op itself (New, stage, Run) and of its whole cycle (the op plus the
// MemStats reads, verification and collection around it).
type segment struct {
	hostMs, cycleMs []float64
}

// collectBetweenOps turns Go's concurrent collector off until the returned
// function is called. While it is off, op loops call runtime.GC() after
// each verified op, outside the timed interval: no op then overlaps a
// collection cycle. On this sandbox that halves the run-to-run spread of
// op_ms_p50, brings op_ms_p90 within 2 % of it and makes host_mem_mb
// repeat exactly; allocation still costs what it costs inside the op, and
// the collections' own time counts against ops_per_s.
func collectBetweenOps() (restore func()) {
	prev := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(prev) }
}

// runResult is the outcome of one run (timed or traced) of one workload.
type runResult struct {
	Values    values
	Attempted int
	Failed    int
	FirstErr  string
	// Extra numbers printed beside the gated ones but not gated.
	P90Ms   float64
	P99Ms   float64
	Samples int
	SegP50  []float64 // op_ms_p50 of each segment, in run order
}

func (r *runResult) fail(err error) {
	r.Failed++
	if r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
}

// setUp generates the inputs from the seed, evaluates the closed-form
// reference and runs the warm-up ops, each verified and followed by a
// collection like every op (see collectBetweenOps). It returns the input
// and the last warm-up op, whose simulated time every later op must repeat.
func setUp(w workloadDef, seed int64, res *runResult) (opInput, opResult) {
	in := w.Generate(seed)
	var warm opResult
	for i := 0; i < warmupOps; i++ {
		warm = in.Run(w.Opts, nil, i)
		res.Attempted++
		if err := in.Verify(&warm); err != nil {
			res.fail(fmt.Errorf("warm-up op %d: %w", i, err))
		}
		warm.Sys = nil // a kept System would count as live heap in host_mem_mb
		runtime.GC()
	}
	return in, warm
}

// checkOp verifies one op's outputs and that its virtual time repeats the
// warm-up op's: the simulator is deterministic, so any difference is a bug.
func checkOp(in opInput, r *opResult, warm *opResult) error {
	if err := in.Verify(r); err != nil {
		return err
	}
	if r.SimUs != warm.SimUs {
		return fmt.Errorf("simulated_us %v differs from the warm-up op's %v", r.SimUs, warm.SimUs)
	}
	if r.RefUs != warm.RefUs {
		return fmt.Errorf("reference collective took %v µs, the warm-up op's took %v", r.RefUs, warm.RefUs)
	}
	return nil
}

// runTimed is the closed-loop timed run: one caller, one op at a time,
// tracing off, for the given duration after set-up.
func runTimed(w workloadDef, seed int64, dur time.Duration) runResult {
	res := runResult{Values: values{}}
	defer collectBetweenOps()()

	var setups []float64
	var in opInput
	var warm opResult
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		in, warm = setUp(w, seed, &res)
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The run is cut into segments; the host-time metrics are medians
	// over the segments' values, so a burst of interference from the host
	// that slows a minority of segments does not decide them.
	segLen := dur / timedSegments
	var seg segment
	var segP50, segCycle []float64 // per closed segment: median op and cycle time
	var hostMs, memMB []float64
	var mallocs, allocBytes uint64
	var m0, m1 runtime.MemStats
	segStart := time.Now()
	for op := 0; len(segP50) < timedSegments; op++ {
		cycleStart := time.Now()
		runtime.ReadMemStats(&m0)
		r := in.Run(w.Opts, nil, op)
		runtime.ReadMemStats(&m1)
		res.Attempted++
		err := checkOp(in, &r, &warm)
		r.Sys = nil // or the next op's host_mem_mb would count this System as live
		runtime.GC()
		now := time.Now()
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", op, err))
		} else {
			ms := float64(r.Host.Nanoseconds()) / 1e6
			seg.hostMs = append(seg.hostMs, ms)
			seg.cycleMs = append(seg.cycleMs, float64(now.Sub(cycleStart).Nanoseconds())/1e6)
			hostMs = append(hostMs, ms)
			memMB = append(memMB, float64(m1.HeapInuse+m1.StackInuse)/(1<<20))
			mallocs += m1.Mallocs - m0.Mallocs
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		if now.Sub(segStart) >= segLen {
			segP50 = append(segP50, median(seg.hostMs))
			segCycle = append(segCycle, median(seg.cycleMs))
			seg, segStart = segment{}, now
		}
	}

	ok := float64(len(hostMs))
	res.Samples = len(hostMs)
	res.P90Ms = percentile(hostMs, 0.90)
	res.P99Ms = percentile(hostMs, 0.99)
	res.SegP50 = segP50
	res.Values["setup_s"] = median(setups)
	res.Values["ops_per_s"] = 1000 / median(segCycle)
	res.Values["op_ms_p50"] = median(segP50)
	if ok > 0 {
		res.Values["allocs_per_op"] = float64(mallocs) / ok
		res.Values["alloc_kb_per_op"] = float64(allocBytes) / 1024 / ok
	}
	res.Values["host_mem_mb"] = median(memMB)
	res.Values["simulated_us"] = warm.SimUs
	res.Values["model_err_pct"] = modelErrPct(warm.RefUs, in.RefModelUs())
	return res
}
