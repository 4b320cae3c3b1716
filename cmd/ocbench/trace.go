package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	ocbcast "repro"
	"repro/internal/workload"
)

// The trace subcommand runs one collective with the observability layer
// on and writes (a) a Chrome/Perfetto trace-event JSON — load it at
// ui.perfetto.dev or chrome://tracing — and (b) a text report to stdout:
// the per-core time-attribution table, the top spans by cumulative
// simulated time with latency quantiles, and resource utilization.

// runTrace parses the trace subcommand's own flags and runs the traced
// simulation. args are the arguments after "trace".
func runTrace(args []string, noContention bool) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	op := fs.String("op", workload.OpBcast, "collective to trace: "+strings.Join(append(workload.Ops(), traceOverlap), " | "))
	lines := fs.Int("lines", 256, "message size in 32-byte cache lines")
	cores := fs.Int("cores", 0, "simulated cores (0 = all 48)")
	algorithm := fs.String("algorithm", "", `algorithm selection: "" (paper default), "auto", or a registered name`)
	channels := fs.Int("channels", 0, "MPB lanes for ibcast-overlap (0 = 1)")
	out := fs.String("out", "ocbench-trace.json", "Perfetto trace-event JSON output path")
	topN := fs.Int("top", 12, "span groups to list in the text summary")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ocbench trace [-op bcast] [-lines 256] [-cores 0] [-algorithm auto] [-out trace.json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := ocbcast.Options{
		Cores:             *cores,
		Algorithm:         *algorithm,
		Channels:          *channels,
		DisableContention: noContention,
		Trace:             true,
	}
	if *op == traceOverlap && *channels > 1 {
		// Extra lanes need a smaller chunk to fit the MPB layout.
		opts.ChunkLines = 48
	}

	sys := ocbcast.New(opts)
	payload := make([]byte, *lines*ocbcast.CacheLineBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	sys.WritePrivate(0, 0, payload)

	body, err := traceBody(*op, *lines)
	if err != nil {
		return err
	}
	sys.Run(body)

	tl := sys.Timeline()
	if err := tl.Validate(); err != nil {
		return fmt.Errorf("trace: invalid timeline: %w", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tl.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %s of %d cache lines on %d cores -> %s (load at ui.perfetto.dev)\n\n",
		*op, *lines, sys.N(), *out)
	return tl.WriteSummary(os.Stdout, *topN)
}

// traceOverlap names the one traced body that is not an op of the op
// table: a non-blocking broadcast overlapped with compute slices.
const traceOverlap = "ibcast-overlap"

// traceBody returns the SPMD body for the chosen collective, rooted at
// core 0: an op of the op table (workload.Ops), or traceOverlap. bcast
// runs the paper's protocol, Core.Broadcast (OC-Bcast by
// core.Broadcaster, with its root-change fence), not the one-sided
// family's BcastOC: a trace of it shows what the paper's figures and the
// benchmark measure. The other five ops have no protocol in the paper,
// so they trace their one-sided OC forms.
func traceBody(op string, lines int) (func(c *ocbcast.Core), error) {
	if op != traceOverlap && workload.OpOf(op) == nil {
		return nil, fmt.Errorf("trace: unknown -op %q (want %s or %s)", op, strings.Join(workload.Ops(), ", "), traceOverlap)
	}
	switch op {
	case workload.OpBcast:
		return func(c *ocbcast.Core) { c.Broadcast(0, 0, lines) }, nil
	case workload.OpReduce:
		return func(c *ocbcast.Core) { c.ReduceOC(0, 0, lines, ocbcast.SumInt64) }, nil
	case workload.OpAllReduce:
		return func(c *ocbcast.Core) { c.AllReduceOC(0, lines, ocbcast.SumInt64) }, nil
	case workload.OpScatter:
		return func(c *ocbcast.Core) { c.ScatterOC(0, 0, lines) }, nil
	case workload.OpGather:
		return func(c *ocbcast.Core) { c.GatherOC(0, 0, lines) }, nil
	case workload.OpAllGather:
		return func(c *ocbcast.Core) { c.AllGatherOC(0, lines) }, nil
	}
	// Non-blocking broadcast overlapped with compute slices — the trace
	// shows the async request span riding under the compute spans, with
	// progress.resume instants where flags arrive.
	return func(c *ocbcast.Core) {
		r := c.IBcastOC(0, 0, lines)
		for !r.Test() {
			c.Compute(5)
		}
	}, nil
}
