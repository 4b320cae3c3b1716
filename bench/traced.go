package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ocbcast "repro"
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/trace"
)

const (
	// minBatches and maxBatches bound how often a host-timed loop of the
	// traced run repeats: it goes on until its slice of the run's time is
	// used, but never below minBatches (so a slow 384-core batch still
	// has a median) or above maxBatches (so the span file stays small).
	minBatches = 5
	maxBatches = 100
	// hostLoops is roughly how many host-timed loops a traced run makes
	// (op sets plus probe batches); the run's seconds are split evenly.
	hostLoops = 40
)

// traceFile is what a traced run writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Commit     string             `json:"commit"`
	Metrics    map[string]float64 `json:"metrics"`
	Spans      []span             `json:"spans"`
}

// probeCtx is what every layer probe gets: the workload's chip shape, the
// span recorder, the time slice of one host-timed loop, and the map its
// metrics go into.
type probeCtx struct {
	tr   *tracer
	n    int
	topo scc.Topology
	cfg  scc.Config
	loop loopBudget
	v    values
	// fail records a probe whose outputs were wrong.
	fail func(error)
}

// loopBudget says how long one host-timed loop goes on.
type loopBudget struct {
	slice time.Duration
	min   int // batches made even when the slice is already used
}

// more reports whether a loop that started at start and has made i
// batches makes another.
func (b loopBudget) more(i int, start time.Time, slices int) bool {
	return i < b.min || (i < maxBatches && time.Since(start) < time.Duration(slices)*b.slice)
}

// batches runs batch under a span called name for one slice. batch returns
// the work it did. The result is the median host nanoseconds per unit of
// work.
func (p *probeCtx) batches(name string, batch func(i int) int64) float64 {
	start := time.Now()
	var per []float64
	for i := 0; p.loop.more(i, start, 1); i++ {
		s := p.tr.begin(name, i)
		count := batch(i)
		p.tr.end(s, count)
		sp := p.tr.spans[s]
		per = append(per, float64(sp.EndNs-sp.StartNs)/float64(count))
	}
	return median(per)
}

// callSpans is the median host nanoseconds per unit of work over every
// span called name (for calls timed one by one inside a batch).
func (p *probeCtx) callSpans(name string) float64 {
	return median(durationsNs(p.tr.spans, name, true))
}

// exact stores a simulated value or count and requires every batch of one
// run to repeat it.
func (p *probeCtx) exact(name string, v float64) {
	if old, ok := p.v[name]; ok && old != v {
		p.fail(fmt.Errorf("%s: %v in one batch, %v in another (must repeat exactly)", name, old, v))
	}
	p.v[name] = v
}

// meshConfig is the chip configuration System.New builds for a topology.
func meshConfig(topo scc.Topology) scc.Config {
	cfg := scc.DefaultConfig()
	cfg.Topo = topo
	return cfg
}

// runTraced is the traced run: the workload's op with benchmark-side spans
// (tracing off and on), then every layer probe at the workload's core
// count. It writes the spans out at the end.
func runTraced(w workloadDef, seed int64, dur time.Duration, minBatches int, dir string) (runResult, error) {
	res := runResult{Values: values{}}
	v := res.Values
	tr := newTracer()
	loop := loopBudget{slice: dur / hostLoops, min: minBatches}
	restoreGC := collectBetweenOps() // ops run as in the timed run; probes with the collector on
	in, warm := setUp(w, seed, &res)

	// The op with Options.Trace off: phase spans, the in-process p50.
	plain := tracedOps(tr, "op", w.Opts, in, &warm, &res, loop, 3, nil)
	v["root.new_ms"] = median(durationsNs(tr.spans, "root.new", false)) / 1e6
	v["root.stage_ms"] = median(durationsNs(tr.spans, "root.stage", false)) / 1e6
	v["root.run_ms"] = median(durationsNs(tr.spans, "root.run", false)) / 1e6
	v["root.verify_ms"] = median(durationsNs(tr.spans, "root.verify", false)) / 1e6

	// The same op with Options.Trace on: tracing overhead and what the
	// recorded timeline says about the simulated chip.
	opts := w.Opts
	opts.Trace = true
	traced := tracedOps(tr, "op.traced", opts, in, &warm, &res, loop, 3, func(sys *ocbcast.System) {
		chipMetrics(sys, v, res.fail)
	})
	v["obs.trace_overhead_ratio"] = traced / plain
	v["obs.timeline_ms"] = median(durationsNs(tr.spans, "root.timeline", false)) / 1e6

	// The same op on every available P.
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	multi := tracedOps(nil, "", w.Opts, in, &warm, &res, loop, 2, nil)
	runtime.GOMAXPROCS(prev)
	v["sim.gomaxprocs_n_ratio"] = multi / plain
	restoreGC()

	p := &probeCtx{tr: tr, n: w.Cores, topo: w.Topology(), loop: loop, v: v, fail: res.fail}
	p.cfg = meshConfig(p.topo)
	top := tr.begin("probes", 0)
	v["root.empty_run_ms"] = p.batches("probe.root.empty_run", func(int) int64 {
		ocbcast.New(w.Opts).Run(func(*ocbcast.Core) {})
		return 1
	}) / 1e6
	for _, probe := range probes {
		s := tr.begin("probe."+probe.layer, 0)
		res.Attempted++
		if err := protect(func() { probe.run(p) }); err != nil {
			res.fail(fmt.Errorf("probe %s: %w", probe.layer, err))
		}
		tr.end(s, 1)
	}
	tr.end(top, int64(len(probes)))

	return res, writeTrace(dir, w, seed, tr, v)
}

// probes lists the layer probes in stack order; each lives in
// probe_<layer>.go and calls only the entry points README.md freezes.
var probes = []struct {
	layer string
	run   func(*probeCtx)
}{
	{"sim", probeSim},
	{"mem", probeMem},
	{"noc", probeNoC},
	{"rma", probeRMA},
	{"rcce", probeRCCE},
	{"core", probeCore},
	{"collective", probeCollective},
	{"occoll", probeOccoll},
	{"algsel", probeAlgsel},
	{"model", probeModel},
	{"workload", probeWorkload},
	{"serve", probeServe},
	{"harness", probeHarness},
}

// tracedOps runs the op repeatedly for the given number of slices, each op
// under a span called name with the phase spans beneath it, verifies
// every op, and returns the median host milliseconds of New+stage+Run.
// first, when set, sees the System of the first op.
func tracedOps(tr *tracer, name string, opts ocbcast.Options, in opInput, warm *opResult, res *runResult, loop loopBudget, slices int, first func(*ocbcast.System)) float64 {
	start := time.Now()
	var hostMs []float64
	for op := 0; loop.more(op, start, slices); op++ {
		top := tr.begin(name, op)
		r := in.Run(opts, tr, op)
		res.Attempted++
		s := tr.begin("root.verify", op)
		err := checkOp(in, &r, warm)
		tr.end(s, 1)
		if err == nil && opts.Trace {
			s = tr.begin("root.timeline", op)
			tl := r.Sys.Timeline()
			tl.Attribution()
			tr.end(s, int64(len(tl.Events)))
		}
		tr.end(top, 1)
		if err != nil {
			res.fail(fmt.Errorf("%s %d: %w", name, op, err))
			continue
		}
		hostMs = append(hostMs, float64(r.Host.Nanoseconds())/1e6)
		if op == 0 && first != nil {
			first(r.Sys)
		}
		r.Sys = nil
		runtime.GC()
	}
	return median(hostMs)
}

// chipMetrics reads what one traced op recorded about the simulated chip:
// the data-movement counters (root.*_per_op) and the timeline (obs.*).
// All of it is exact for a given seed.
func chipMetrics(sys *ocbcast.System, v values, fail func(error)) {
	cs := make([]trace.CoreCounters, sys.N())
	for i := range cs {
		cs[i] = sys.Counters(i)
	}
	c := trace.Sum(cs)
	v["root.mpb_lines_per_op"] = float64(c.MPBReadLines + c.MPBWriteLines)
	v["root.mem_lines_per_op"] = float64(c.MemReadLines + c.MemWriteLines)
	v["root.cache_hit_lines_per_op"] = float64(c.CacheHitLines)
	v["root.flag_sets_per_op"] = float64(c.FlagSets)
	v["root.flag_waits_per_op"] = float64(c.FlagWaits)
	v["root.flag_polls_per_op"] = float64(c.FlagPolls)
	v["root.put_get_ops_per_op"] = float64(c.PutOps + c.GetOps)

	tl := sys.Timeline()
	if err := tl.Validate(); err != nil {
		fail(fmt.Errorf("timeline: %w", err))
	}
	v["obs.events_per_op"] = float64(len(tl.Events))
	var total obs.Time
	var buckets [obs.NumBuckets]obs.Time
	for _, a := range tl.Attribution() {
		total += a.Total
		for b, t := range a.Buckets {
			buckets[b] += t
		}
	}
	for b, name := range map[obs.Bucket]string{
		obs.BucketCompute: "obs.sim_compute_frac", obs.BucketMPB: "obs.sim_mpb_frac",
		obs.BucketMem: "obs.sim_mem_frac", obs.BucketFlag: "obs.sim_flag_frac",
		obs.BucketWait: "obs.sim_wait_frac", obs.BucketOther: "obs.sim_other_frac",
	} {
		v[name] = float64(buckets[b]) / float64(total)
	}
	var busiest float64
	var queued obs.Time
	for _, r := range tl.Resources {
		if r.Class != obs.ResMPBPort {
			continue
		}
		if u := r.Utilization(tl.End); u > busiest {
			busiest = u
		}
		queued += r.Queued
	}
	v["obs.mpb_port_busy_max_frac"] = busiest
	v["obs.mpb_port_queued_us"] = float64(queued) / 1e6 // obs.Time is picoseconds
}

// outDir is bench/out from the repository root and out from bench/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func writeTrace(dir string, w workloadDef, seed int64, tr *tracer, v values) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{
		Workload: w.Name, Seed: seed, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit(), Metrics: v, Spans: tr.spans,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+w.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
	return nil
}
