// Command ocbench regenerates the tables and figures of "High-Performance
// RMA-Based Broadcast on the Intel SCC" (SPAA 2012) on the simulated SCC.
//
// Usage:
//
//	ocbench list                 # show available experiments
//	ocbench all                  # run everything
//	ocbench fig8a fig8b table2   # run specific artifacts
//	ocbench fig-allreduce        # one-sided vs two-sided allreduce (§7)
//	ocbench scale                # model vs simulation on 48..384-core meshes
//	ocbench overlap              # non-blocking overlap sweep (fig-overlap)
//	ocbench tune                 # decision tables + auto-selection regret -> BENCH_simperf.json
//	ocbench -verify tune         # gate the checked-in crossover table (CI)
//	ocbench apps                 # whole-app kernel replay: default vs auto -> BENCH_simperf.json
//	ocbench -verify apps         # gate the checked-in apps table (CI)
//	ocbench serving              # multi-tenant serving sweep: load vs latency -> BENCH_simperf.json
//	ocbench -verify serving      # gate the checked-in serving table + determinism double-run (CI)
//	ocbench trace -op allreduce  # run one traced collective -> Perfetto JSON + text summary
//
// Flags:
//
//	-effort 1|2      grid tier of the sweeps that have one: 1 quick, 2 full (default 2)
//	-verify          tune/apps/serving: gate the checked-in table, simulate nothing
//	-no-contention   disable the MPB-port contention model
//	-no-cache        disable the L1 model for private-memory reads
//	-cpuprofile F    write a CPU profile of the whole run to F (go tool pprof)
//	-memprofile F    write a heap profile at exit to F
//
// Host time of the simulator (wall-clock, allocations, memory) is not
// measured here: that is bench/ (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/harness"
	"repro/internal/scc"
)

// stopProfiles finalizes any profiles requested on the command line; it
// must run before every exit path (os.Exit skips deferred calls, so the
// exit helper below routes through it explicitly).
var stopProfiles = func() {}

// exit finalizes profiles and terminates with the given status.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles begins CPU profiling and/or arranges a heap snapshot
// according to the -cpuprofile/-memprofile flags, returning the cleanup
// the exit paths must call. Profiles cover the whole subcommand run —
// point `go tool pprof` at the ocbench binary and the written file.
func startProfiles(cpuProfile, memProfile string) func() {
	var cpuFile *os.File
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memProfile != "" {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot shows live objects
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
}

func main() {
	effort := flag.Int("effort", 2, "grid tier of the sweeps that have one: 1 quick, 2 full; no measured value depends on it")
	noContention := flag.Bool("no-contention", false, "disable the MPB contention model")
	noCache := flag.Bool("no-cache", false, "disable the L1 cache model")
	verify := flag.Bool("verify", false, "tune/apps/serving: gate the checked-in BENCH_simperf.json table without simulating")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Usage = usage
	flag.Parse()

	stopProfiles = startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	cfg := scc.DefaultConfig()
	cfg.Contention.Enabled = !*noContention
	cfg.CacheEnabled = !*noCache

	args := flag.Args()
	if len(args) == 0 || *effort != 1 && *effort != 2 {
		usage()
		exit(2)
	}

	for _, p := range pinnedTables {
		if args[0] == p.cmd {
			if err := p.run(cfg, *effort, *verify); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			return
		}
	}

	var names []string
	switch args[0] {
	case "list":
		fmt.Println("available experiments:")
		for _, e := range harness.Registry() {
			fmt.Printf("  %-10s %s\n", e.Name, e.Desc)
		}
		for _, p := range pinnedTables {
			fmt.Printf("  %-10s %s -> %s\n", p.cmd, p.desc, benchFile)
		}
		fmt.Printf("  %-10s %s\n", "trace", "run one collective with tracing on -> Perfetto JSON + summary")
		return
	case "trace":
		if err := runTrace(args[1:], *noContention); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		return
	case "all":
		for _, e := range harness.Registry() {
			names = append(names, e.Name)
		}
	case "scale":
		// Convenience alias for the topology-scaling experiment.
		names = append([]string{"fig-scale"}, args[1:]...)
	case "overlap":
		// Convenience alias for the non-blocking overlap experiment.
		names = append([]string{"fig-overlap"}, args[1:]...)
	default:
		names = args
	}

	for _, name := range names {
		exp, err := harness.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		tables, err := exp.Run(cfg, *effort)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `ocbench — regenerate the SPAA'12 OC-Bcast paper's tables and figures

usage: ocbench [flags] list | all | <experiment>... | tune | apps | serving | trace [trace flags]

`)
	flag.PrintDefaults()
}
