package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/scc"
)

// ParallelMap evaluates fn(0..n-1) across up to GOMAXPROCS worker
// goroutines and returns the results in index order. It is the harness's
// experiment-sharding runner: each job builds its own Chip (and therefore
// its own sim.Engine), so jobs share no mutable state and the results are
// byte-identical to running the same jobs sequentially — concurrency
// changes only wall-clock time, never simulated time. A panic in any job
// (e.g. a simulated deadlock) is re-raised on the caller's goroutine
// after all workers drain.
func ParallelMap[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runJob(out, i, n, fn)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked *JobPanic
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							jp := r.(JobPanic) // runJob wraps every panic
							panicMu.Lock()
							// Keep the lowest failing index so the
							// surfaced failure is deterministic even
							// when several jobs panic in one run.
							if panicked == nil || jp.Job < panicked.Job {
								panicked = &jp
							}
							panicMu.Unlock()
						}
					}()
					runJob(out, i, n, fn)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(*panicked)
	}
	return out
}

// runJob evaluates one job, converting any panic into a JobPanic so the
// failure surfaces identically on the sequential and parallel paths.
func runJob[T any](out []T, i, n int, fn func(i int) T) {
	defer func() {
		if r := recover(); r != nil {
			panic(JobPanic{Job: i, Jobs: n, Val: r})
		}
	}()
	out[i] = fn(i)
}

// JobPanic is re-raised by ParallelMap when a job panics. It attributes
// the failure to a job index while preserving the job's original panic
// value (e.g. the engine's deadlock report) in Val.
type JobPanic struct {
	Job, Jobs int
	Val       any
}

func (p JobPanic) String() string {
	return fmt.Sprintf("harness: job %d of %d panicked: %v", p.Job, p.Jobs, p.Val)
}

// LatencyCell is one point of a broadcast sweep: an algorithm at one
// message size with a repetition count.
type LatencyCell struct {
	Alg   Alg
	Lines int
	Reps  int
}

// MeanLatencyGrid measures every cell on its own independent chip, shards
// the cells across ParallelMap workers, and returns the mean latency (µs)
// per cell in input order.
func MeanLatencyGrid(cfg scc.Config, n int, cells []LatencyCell) []float64 {
	return ParallelMap(len(cells), func(i int) float64 {
		return mean(MeasureBcast(cfg, cells[i].Alg, n, cells[i].Lines, cells[i].Reps))
	})
}

// AllReduceCell is one point of an allreduce (or, with ReduceOnly,
// reduce-only) sweep.
type AllReduceCell struct {
	Variant    string
	K          int
	Lines      int
	Reps       int
	ReduceOnly bool
}

// MeanAllReduceGrid is MeanLatencyGrid for allreduce/reduce variants.
func MeanAllReduceGrid(cfg scc.Config, n int, cells []AllReduceCell) []float64 {
	return ParallelMap(len(cells), func(i int) float64 {
		c := cells[i]
		return mean(measureCollective(cfg, c.Variant, c.K, n, c.Lines, c.Reps, c.ReduceOnly))
	})
}

// DefaultSweepCells is the canonical Fig8a-style (size × algorithm)
// sweep BenchmarkSweepParallel uses to measure the parallel harness
// itself. The workload is fixed (including its repetition count) so
// cross-commit comparisons measure hot-path changes only.
func DefaultSweepCells() []LatencyCell {
	algs := []Alg{{Name: "oc", K: 2}, {Name: "oc", K: 7}, {Name: "oc", K: 47}, {Name: "binomial"}}
	var cells []LatencyCell
	for _, lines := range []int{1, 16, 48, 96} {
		for _, a := range algs {
			cells = append(cells, LatencyCell{Alg: a, Lines: lines, Reps: 2})
		}
	}
	return cells
}

// ncoresCap clamps an accessor count to the 47 remote cores available
// when core 0 is the target (Figure 4's x-axis).
func ncoresCap(n int) int {
	if n > scc.NumCores-1 {
		return scc.NumCores - 1
	}
	return n
}
