// Command bench is the repository's benchmark: four workloads driven
// through the root package's public API, end-to-end metrics measured with
// tracing off, and a separate traced run that records spans around calls
// into each layer and probes every layer on its own. See README.md.
//
//	go run . -workload bcast_oc_48 -seed 1 -seconds 30 -trace 0   # one timed run
//	go run . -workload bcast_oc_48 -seed 1 -seconds 20 -trace 1   # one traced run
//	go run .                                                      # all workloads, timed then traced
//	go run . -agree                                               # the whole set twice, compared
//
// The last line of standard output of a single run is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// maxTracedSeconds caps the traced run of the whole-set modes; timed runs
// are never shortened.
const maxTracedSeconds = 20

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line a single run prints.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run one workload and print its JSON result (default: all workloads, timed then traced)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the timed run in seconds")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	agree := flag.Bool("agree", false, "run the whole set twice and fail unless the two agree within the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// One simulation is 1.35-1.4x faster and repeats within 1 % on one P;
	// see README.md "Why GOMAXPROCS is 1".
	runtime.GOMAXPROCS(1)

	var err error
	switch {
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1)
	case *agree:
		err = runAgree(*seed, *seconds)
	default:
		_, err = runSet(*seed, *seconds, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printHeader(w workloadDef, seed int64, seconds int, traced bool) {
	kind := "timed run (tracing off): end-to-end metrics"
	if traced {
		kind = "traced run: per-layer metrics"
	}
	fmt.Printf("# bench %s seed=%d %s\n", w.Name, seed, kind)
	fmt.Printf("# %s nproc=%d GOMAXPROCS=%d commit=%s\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit())
	fmt.Printf("# closed loop: 1 client, one op at a time, %d warm-up ops, %d s run; generator lateness does not apply (no open-loop schedule)\n",
		warmupOps, seconds)
	fmt.Println("# host = wall-clock of the simulator; simulated = virtual time of the modelled chip")
}

// commit names the checkout for the run header; a checkout that is not a
// git repository reads "unknown". git may look no further up than the
// checkout's root, so nothing outside the checkout is read.
func commit() string {
	benchDir, err := filepath.Abs(filepath.Dir(outDir()))
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(filepath.Dir(benchDir)))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printValues(specs []metric, v values, endToEndTable bool) {
	for _, m := range specs {
		line := fmt.Sprintf("%-32s %16.6g %-9s %-6s", m.Name, v[m.Name], m.Unit, m.Better)
		if endToEndTable {
			line += fmt.Sprintf(" bound %g", m.Bound)
		} else {
			line += fmt.Sprintf(" %c", m.Kind)
		}
		fmt.Println(line)
	}
}

// runOne is one run of one workload; it prints the JSON result last.
func runOne(name string, seed int64, seconds int, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHeader(w, seed, seconds, traced)
	dur := time.Duration(seconds) * time.Second
	var res runResult
	specs := endToEnd
	if traced {
		specs = perLayer
		var err error
		if res, err = runTraced(w, seed, dur, minBatches, outDir()); err != nil {
			return err
		}
	} else {
		res = runTimed(w, seed, dur)
		fmt.Printf("# %d samples; op_ms_p90 %.4f ms, op_ms_p99 %.4f ms (printed, not gated); op_ms_p50 per segment %.4f\n",
			res.Samples, res.P90Ms, res.P99Ms, res.SegP50)
	}
	printValues(specs, res.Values, !traced)
	fmt.Printf("failed_frac %g (%d of %d ops)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if res.FirstErr != "" {
		fmt.Println("# first failure:", res.FirstErr)
	}

	out := jsonResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]jsonMetric{}}
	for _, m := range specs {
		v, ok := res.Values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
		out.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setResult holds one whole set: per workload, the timed and the traced
// result of its child processes.
type setResult map[string][2]jsonResult

// runChild re-executes this binary for one run, so every workload measures
// host memory and allocation in a process of its own.
func runChild(w workloadDef, seed int64, seconds int, traced bool, echo bool) (jsonResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return jsonResult{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return jsonResult{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if echo {
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
	}
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return jsonResult{}, fmt.Errorf("%s: result line: %w", w.Name, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: %d of %d ops failed", w.Name, res.Failed, res.Attempted)
	}
	return res, nil
}

// runSet runs every workload timed, then traced, each in a child process.
func runSet(seed int64, seconds int, echo bool) (setResult, error) {
	tracedSeconds := seconds
	if tracedSeconds > maxTracedSeconds {
		tracedSeconds = maxTracedSeconds
	}
	set := setResult{}
	for _, w := range workloads {
		var pair [2]jsonResult
		for i, traced := range []bool{false, true} {
			s := seconds
			if traced {
				s = tracedSeconds
			}
			res, err := runChild(w, seed, s, traced, echo)
			if err != nil {
				return nil, err
			}
			pair[i] = res
		}
		set[w.Name] = pair
	}
	return set, nil
}

// runAgree runs the whole set twice with the same seed and compares: host
// metrics must agree within their bound, everything simulated or counted
// must be identical.
func runAgree(seed int64, seconds int) error {
	var sets [2]setResult
	for i := range sets {
		fmt.Printf("# set %d of 2\n", i+1)
		s, err := runSet(seed, seconds, false)
		if err != nil {
			return err
		}
		sets[i] = s
	}
	bad := 0
	fmt.Printf("%-16s %-32s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, w := range workloads {
		for i, specs := range [][]metric{endToEnd, perLayer} {
			for _, m := range specs {
				a := sets[0][w.Name][i].Metrics[m.Name].Value
				b := sets[1][w.Name][i].Metrics[m.Name].Value
				verdict, show := agreeVerdict(m, a, b, i == 0)
				if verdict != "ok" {
					bad++
				}
				if show || verdict != "ok" {
					fmt.Printf("%-16s %-32s %16.6g %16.6g %8.2f%% %7g %s\n", w.Name, m.Name, a, b, 100*relDiff(a, b), m.Bound, verdict)
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric pairs disagree", bad)
	}
	fmt.Println("# the two sets agree")
	return nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// agreeVerdict judges one pair of values of the same metric from two sets
// of the same code and seed. Exact metrics (simulated values and counts)
// must be identical; end-to-end host metrics must lie within the bound;
// per-layer host metrics are reported by the traced run without a bound
// and are not judged. show says whether the pair is worth a table row.
func agreeVerdict(m metric, a, b float64, isEndToEnd bool) (verdict string, show bool) {
	switch {
	case m.Kind != 'h':
		if a != b {
			return "DIFFERS (must be identical)", true
		}
		return "ok", isEndToEnd
	case !isEndToEnd:
		return "ok", false
	case relDiff(a, b) > m.Bound:
		return "OUTSIDE BOUND", true
	}
	return "ok", true
}
