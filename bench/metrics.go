package main

// metric describes one reported number. The end-to-end list and the
// per-layer list below are the single source of the names, units and
// directions; BENCHMARK.json at the repo root repeats them and the schema
// test requires the two to agree in both directions.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. It is
	// also the agreement bound of `-agree` for host metrics. Each bound is
	// about three times the spread between ten runs on ten seeds measured
	// on the 2-core sandbox (README.md, "Steadiness"): host time drifts
	// by several per cent over minutes there, allocation counts move with
	// the seed's trace. Per-layer metrics carry no bound.
	Bound float64
	// Kind says which clock or counter the number comes from: 'h' is host
	// time or host memory (noisy), 's' is simulated (virtual) time or a
	// value derived from it (exact for one seed), 'c' is an exact count.
	Kind byte
}

// endToEnd lists what a user of the library sees, per workload. Host
// means wall-clock of the simulator, simulated means virtual time of the
// modelled chip; the two are never mixed in one number.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, 'h'},
	{"ops_per_s", "1/s", "higher", 0.15, 'h'},
	{"op_ms_p50", "ms", "lower", 0.15, 'h'},
	{"allocs_per_op", "count", "lower", 0.06, 'h'},
	{"alloc_kb_per_op", "KiB", "lower", 0.06, 'h'},
	{"host_mem_mb", "MiB", "lower", 0.06, 'h'},
	{"simulated_us", "us", "lower", 0.02, 's'},
	{"model_err_pct", "%", "lower", 0.05, 's'},
}

// perLayer lists the probes of single layers, in stack order. README.md
// records which end-to-end metric each one should move on which workload.
var perLayer = []metric{
	// root package (repro): phases of one op and the spin-up floor.
	{"root.new_ms", "ms", "lower", 0, 'h'},
	{"root.stage_ms", "ms", "lower", 0, 'h'},
	{"root.run_ms", "ms", "lower", 0, 'h'},
	{"root.verify_ms", "ms", "lower", 0, 'h'},
	{"root.empty_run_ms", "ms", "lower", 0, 'h'},
	// root counters (internal/trace through System.Counters), chip-wide per op.
	{"root.mpb_lines_per_op", "count", "lower", 0, 'c'},
	{"root.mem_lines_per_op", "count", "lower", 0, 'c'},
	{"root.cache_hit_lines_per_op", "count", "higher", 0, 'c'},
	{"root.flag_sets_per_op", "count", "lower", 0, 'c'},
	{"root.flag_waits_per_op", "count", "lower", 0, 'c'},
	{"root.flag_polls_per_op", "count", "lower", 0, 'c'},
	{"root.put_get_ops_per_op", "count", "lower", 0, 'c'},
	// obs: cost of tracing and what the recorded timeline says.
	{"obs.trace_overhead_ratio", "ratio", "lower", 0, 'h'},
	{"obs.events_per_op", "count", "lower", 0, 'c'},
	{"obs.timeline_ms", "ms", "lower", 0, 'h'},
	{"obs.sim_compute_frac", "fraction", "higher", 0, 's'},
	{"obs.sim_mpb_frac", "fraction", "lower", 0, 's'},
	{"obs.sim_mem_frac", "fraction", "lower", 0, 's'},
	{"obs.sim_flag_frac", "fraction", "lower", 0, 's'},
	{"obs.sim_wait_frac", "fraction", "lower", 0, 's'},
	{"obs.sim_other_frac", "fraction", "lower", 0, 's'},
	{"obs.mpb_port_busy_max_frac", "fraction", "lower", 0, 's'},
	{"obs.mpb_port_queued_us", "us", "lower", 0, 's'},
	// sim: the discrete-event engine.
	{"sim.ns_per_switch", "ns", "lower", 0, 'h'},
	{"sim.ns_per_block_wake", "ns", "lower", 0, 'h'},
	{"sim.spinup_us", "us", "lower", 0, 'h'},
	{"sim.gomaxprocs_n_ratio", "ratio", "lower", 0, 'h'},
	// mem: MPB extents, flag waits, private memory.
	{"mem.ns_per_line_write", "ns", "lower", 0, 'h'},
	{"mem.ns_per_line_read", "ns", "lower", 0, 'h'},
	{"mem.ns_per_wait_wake", "ns", "lower", 0, 'h'},
	{"mem.ns_per_probe", "ns", "lower", 0, 'h'},
	{"mem.private_ns_per_line", "ns", "lower", 0, 'h'},
	// noc: the detailed mesh (unused in the default analytic mode).
	{"noc.ns_per_traverse", "ns", "lower", 0, 'h'},
	// rma: chip construction and the put/get/flag primitives.
	{"rma.chip_new_ms", "ms", "lower", 0, 'h'},
	{"rma.chip_acquire_us", "us", "lower", 0, 'h'},
	{"rma.ns_per_line_put", "ns", "lower", 0, 'h'},
	{"rma.ns_per_line_get", "ns", "lower", 0, 'h'},
	{"rma.ns_per_flag_roundtrip", "ns", "lower", 0, 'h'},
	{"rma.put96_us", "us", "lower", 0, 's'},
	{"rma.put_model_err_pct", "%", "lower", 0, 's'},
	// rcce: two-sided send/recv and the barrier.
	{"rcce.ns_per_line_sendrecv", "ns", "lower", 0, 'h'},
	{"rcce.barrier_host_us", "us", "lower", 0, 'h'},
	{"rcce.barrier_us", "us", "lower", 0, 's'},
	// core: OC-Bcast itself.
	{"core.bcast_host_us", "us", "lower", 0, 'h'},
	{"core.bcast_us", "us", "lower", 0, 's'},
	{"core.switches_per_bcast", "count", "lower", 0, 'c'},
	{"core.bcast_1cl_us", "us", "lower", 0, 's'},
	{"core.peak_mbps", "MB/s", "higher", 0, 's'},
	{"core.latency_gain_pct", "%", "higher", 0, 's'},
	{"core.throughput_ratio", "ratio", "higher", 0, 's'},
	// collective: the two-sided RCCE_comm baselines.
	{"collective.binomial_host_us", "us", "lower", 0, 'h'},
	{"collective.binomial_us", "us", "lower", 0, 's'},
	{"collective.binomial_1cl_us", "us", "lower", 0, 's'},
	{"collective.sag_host_us", "us", "lower", 0, 'h'},
	{"collective.sag_peak_mbps", "MB/s", "higher", 0, 's'},
	{"collective.allreduce_host_us", "us", "lower", 0, 'h'},
	// occoll: one-sided collectives and the progress engine.
	{"occoll.allreduce_host_us", "us", "lower", 0, 'h'},
	{"occoll.allreduce_us", "us", "lower", 0, 's'},
	{"occoll.switches_per_allreduce", "count", "lower", 0, 'c'},
	{"occoll.iallreduce_host_us", "us", "lower", 0, 'h'},
	{"occoll.tests_per_request", "count", "lower", 0, 'c'},
	{"occoll.poll_hit_ratio", "ratio", "higher", 0, 'c'},
	// algsel: the tuner and the decision-table lookup.
	{"algsel.tune_ms", "ms", "lower", 0, 'h'},
	{"algsel.choose_ns", "ns", "lower", 0, 'h'},
	// model / calibrate: closed forms and the Table 1 refit.
	{"model.eval_ns", "ns", "lower", 0, 'h'},
	{"calibrate.fit_ms", "ms", "lower", 0, 'h'},
	{"calibrate.fit_err_pct", "%", "lower", 0, 's'},
	// workload: trace text and per-record dispatch with no simulator below.
	{"workload.ns_per_record_dispatch", "ns", "lower", 0, 'h'},
	{"workload.parse_ns_per_record", "ns", "lower", 0, 'h'},
	{"workload.format_ns_per_record", "ns", "lower", 0, 'h'},
	// serve: scheduler alone, then one System.Serve of a tenant mix.
	{"serve.ns_per_request_sched", "ns", "lower", 0, 'h'},
	{"serve.host_ms", "ms", "lower", 0, 'h'},
	{"serve.throughput_rps", "1/s", "higher", 0, 's'},
	{"serve.p99_us", "us", "lower", 0, 's'},
	{"serve.rejected_frac", "fraction", "lower", 0, 's'},
	{"serve.batch_occupancy", "ratio", "higher", 0, 's'},
	// harness: regenerating the paper's figures.
	{"harness.paper_figs_s", "s", "lower", 0, 'h'},
	{"harness.parallel_ratio", "ratio", "lower", 0, 'h'},
}

// values maps metric names to measured values.
type values map[string]float64
