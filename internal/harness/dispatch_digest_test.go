package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	ocbcast "repro"
	"repro/internal/algsel"
	occore "repro/internal/core"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Every way a collective call is dispatched — which algorithm a call
// resolves to, and how a trace record or a serving batch becomes a call
// — is pinned to testdata/dispatch_digests.json. The rows were recorded
// twice, identically, at the last commit where the public API and the
// pooled harness chips each carried their own record adapters and the
// selection policy lived on the public Core (1484d21):
//
//   - public Replay of every fig-apps kernel at 8 and 48 cores under
//     every Options.Algorithm policy ("", "auto" and each registered
//     name), and the pooled ReplayChip of the same kernels;
//   - public Serve and the pooled ServeChip on the allocation-budget mix
//     at 8 cores and the same mix at 48, under "" and "auto";
//   - traced public runs, with a hash of their obs event stream;
//   - the resolution table: every op × method × policy × size on 48 and
//     384 cores → the algorithm choice the call runs.
//
// Replay rows hold the makespan, a hash of the per-core finish clocks
// and the summed counters; serve rows a hash of ServeStats.Fingerprint
// and the summed counters. A pooled run must equal the public run of the
// same cell under the paper-default policy.

// dispatchLines are the call sizes of the resolution table.
var dispatchLines = []int{1, 16, 96, 1024, 8192}

// dispatchMethods name the three public method shapes a call comes
// through, in table order.
var dispatchMethods = []string{"generic", "onesided", "issue"}

// runDigest is one replay or serving run.
type runDigest struct {
	Cell string `json:"cell"`
	// Result is the makespan in µs as an exact hex float (replays) or an
	// FNV-1a-64 of ServeStats.Fingerprint (serving runs).
	Result string `json:"result"`
	// Finish is an FNV-1a-64 over the per-core finish clocks (replays).
	Finish   string             `json:"finish_fnv,omitempty"`
	Counters trace.CoreCounters `json:"counters"`
	// Events is an FNV-1a-64 over the obs event stream (traced runs).
	Events string `json:"events_fnv,omitempty"`
}

// resolveDigest is one row of the resolution table: the choice a call
// resolves to at each of dispatchLines.
type resolveDigest struct {
	Cell    string   `json:"cell"`
	Choices []string `json:"choices"`
}

type dispatchDigests struct {
	Lines   []int           `json:"lines"`
	Runs    []runDigest     `json:"runs"`
	Resolve []resolveDigest `json:"resolve"`
}

// dispatchPolicies lists "", "auto" and every registered algorithm name.
func dispatchPolicies() []string {
	seen := map[string]bool{}
	var names []string
	for _, op := range algsel.Ops() {
		for _, a := range algsel.For(op) {
			if !seen[a.Name] {
				seen[a.Name] = true
				names = append(names, a.Name)
			}
		}
	}
	sort.Strings(names)
	return append([]string{"", "auto"}, names...)
}

// policyCell names a policy inside a cell; "" is the compat default.
func policyCell(p string) string {
	if p == "" {
		return "compat"
	}
	return p
}

func fnvHex(write func(h func(format string, a ...any))) string {
	h := fnv.New64a()
	write(func(format string, a ...any) { fmt.Fprintf(h, format, a...) })
	return fmt.Sprintf("%016x", h.Sum64())
}

func finishFNV(finish []float64) string {
	return fnvHex(func(p func(string, ...any)) {
		for _, f := range finish {
			p("%d\n", math.Float64bits(f))
		}
	})
}

func sumCounters(sys *ocbcast.System) trace.CoreCounters {
	var c trace.CoreCounters
	for i := 0; i < sys.N(); i++ {
		c.Add(sys.Counters(i))
	}
	return c
}

func eventsFNV(sys *ocbcast.System) string {
	return fnvHex(func(p func(string, ...any)) {
		for _, ev := range sys.Timeline().Events {
			p("%+v\n", ev)
		}
	})
}

// dispatchServeConfig is the runtime configuration of the serving rows:
// the allocation-budget test's.
var dispatchServeConfig = serve.Config{Policy: serve.PolicyWeighted, QueueBound: 16, MaxBatch: 4, MaxBatchLines: 64, Lanes: 2}

func publicReplay(n int, policy string, tr *workload.Trace, traced bool) runDigest {
	sys := ocbcast.New(ocbcast.Options{Cores: n, Algorithm: policy, Trace: traced})
	st, err := sys.Replay(tr)
	if err != nil {
		panic(err)
	}
	d := runDigest{Result: fmt.Sprintf("%x", st.MakespanUs), Finish: finishFNV(st.FinishUs), Counters: sumCounters(sys)}
	if traced {
		d.Events = eventsFNV(sys)
	}
	return d
}

func publicServe(n int, policy string, traced bool) runDigest {
	sys := ocbcast.New(ocbcast.Options{Cores: n, Algorithm: policy, Channels: 2, ChunkLines: servingChunkLines, Trace: traced})
	res, err := sys.Serve(dispatchServeConfig, serveChipMix(n))
	if err != nil {
		panic(err)
	}
	d := runDigest{Result: fingerprintFNV(res), Counters: sumCounters(sys)}
	if traced {
		d.Events = eventsFNV(sys)
	}
	return d
}

func fingerprintFNV(r serve.Result) string {
	return fnvHex(func(p func(string, ...any)) { p("%s", r.Fingerprint()) })
}

// dispatchRuns produces the replay and serving rows, in file order; short
// replays the 48-core kernels under "" and "auto" only.
func dispatchRuns(short bool) []runDigest {
	cfg := scc.DefaultConfig()
	var rows []runDigest
	add := func(cell string, d runDigest) {
		d.Cell = cell
		rows = append(rows, d)
	}
	for _, n := range []int{8, 48} {
		for _, k := range workload.Kernels(n) {
			for _, p := range dispatchPolicies() {
				if short && n > 8 && p != "" && p != "auto" {
					continue
				}
				add(fmt.Sprintf("replay/n%d/%s/%s", n, k.Name, policyCell(p)), publicReplay(n, p, k.Trace, false))
			}
			makespan, finish, counters := pooledReplay(cfg, n, k.Trace)
			add(fmt.Sprintf("replay-pooled/n%d/%s", n, k.Name),
				runDigest{Result: fmt.Sprintf("%x", makespan), Finish: finishFNV(finish), Counters: counters})
		}
	}
	for _, n := range []int{8, 48} {
		for _, p := range []string{"", "auto"} {
			add(fmt.Sprintf("serve/n%d/%s", n, policyCell(p)), publicServe(n, p, false))
		}
		res, counters := pooledServe(cfg, n, dispatchServeConfig, serveChipMix(n))
		add(fmt.Sprintf("serve-pooled/n%d", n), runDigest{Result: fingerprintFNV(res), Counters: counters})
	}
	shuffle := workload.Kernels(8)[2]
	for _, p := range []string{"", "auto"} {
		add(fmt.Sprintf("replay-traced/n8/%s/%s", shuffle.Name, policyCell(p)), publicReplay(8, p, shuffle.Trace, true))
	}
	add("serve-traced/n8/compat", publicServe(8, "", true))
	return rows
}

// dispatchResolve produces the resolution table, in file order.
func dispatchResolve() []resolveDigest {
	var rows []resolveDigest
	for _, topo := range []scc.Topology{scc.SCC(), scc.Mesh(16, 12)} {
		cfg := scc.DefaultConfig()
		n := topo.NumCores()
		plan := algsel.TuneCached(cfg.Params, topo, n, occore.DefaultConfig())
		for _, p := range dispatchPolicies() {
			for _, op := range algsel.Ops() {
				for m, method := range dispatchMethods {
					row := resolveDigest{Cell: fmt.Sprintf("resolve/n%d/%s/%s/%s", n, policyCell(p), op, method)}
					for _, lines := range dispatchLines {
						row.Choices = append(row.Choices, resolveChoice(p, plan, op, m, lines).String())
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows
}

func loadDispatchDigests(t *testing.T) dispatchDigests {
	t.Helper()
	f, err := os.Open("testdata/dispatch_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var d dispatchDigests
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDispatchDigestSchema pins the committed file's shape: the size
// axis, one row per cell with no cell repeated, every field filled, and
// exactly the resolution grid — so a truncated file cannot make the
// comparison vacuous.
func TestDispatchDigestSchema(t *testing.T) {
	d := loadDispatchDigests(t)
	if !reflect.DeepEqual(d.Lines, dispatchLines) {
		t.Errorf("lines %v, want %v", d.Lines, dispatchLines)
	}
	seen := map[string]bool{}
	for i, r := range d.Runs {
		if r.Cell == "" || seen[r.Cell] || r.Result == "" || r.Counters.PutOps+r.Counters.GetOps == 0 {
			t.Errorf("run row %d: empty, repeated or unfilled: %+v", i, r)
		}
		seen[r.Cell] = true
	}
	if want := 2*3*(len(dispatchPolicies())+1) + 2*3 + 3; len(d.Runs) != want {
		t.Errorf("%d run rows, want %d", len(d.Runs), want)
	}
	for i, r := range d.Resolve {
		if r.Cell == "" || seen[r.Cell] || len(r.Choices) != len(dispatchLines) {
			t.Errorf("resolve row %d: empty, repeated or unfilled: %+v", i, r)
		}
		seen[r.Cell] = true
	}
	if want := 2 * len(dispatchPolicies()) * len(algsel.Ops()) * len(dispatchMethods); len(d.Resolve) != want {
		t.Errorf("%d resolve rows, want %d", len(d.Resolve), want)
	}
}

// TestDispatchDigests reproduces every row exactly (under -short, the
// 48-core replays under named overrides are skipped) and checks that
// each pooled run equals the public run of its cell under the
// paper-default policy. A mismatch logs the table this build produces:
// it means a call resolved, dispatched or timed differently, which is a
// bug unless proven otherwise.
func TestDispatchDigests(t *testing.T) {
	want := loadDispatchDigests(t)
	got := dispatchDigests{Lines: dispatchLines, Runs: dispatchRuns(testing.Short()), Resolve: dispatchResolve()}
	wantRuns := map[string]runDigest{}
	for _, r := range want.Runs {
		wantRuns[r.Cell] = r
	}
	byCell := map[string]runDigest{}
	for _, r := range got.Runs {
		byCell[r.Cell] = r
		if r != wantRuns[r.Cell] {
			t.Errorf("%s differs", r.Cell)
		}
	}
	if !reflect.DeepEqual(got.Resolve, want.Resolve) {
		t.Error("the resolution table differs")
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("this build produces:\n%s", out)
	}
	for _, n := range []int{8, 48} {
		for _, k := range workload.Kernels(n) {
			pooled, public := byCell[fmt.Sprintf("replay-pooled/n%d/%s", n, k.Name)], byCell[fmt.Sprintf("replay/n%d/%s/compat", n, k.Name)]
			if pooled.Result != public.Result || pooled.Finish != public.Finish || pooled.Counters != public.Counters {
				t.Errorf("n%d %s: pooled replay %+v != public %+v", n, k.Name, pooled, public)
			}
		}
		pooled, public := byCell[fmt.Sprintf("serve-pooled/n%d", n)], byCell[fmt.Sprintf("serve/n%d/compat", n)]
		if pooled.Result != public.Result || pooled.Counters != public.Counters {
			t.Errorf("n%d: pooled serve %+v != public %+v", n, pooled, public)
		}
	}
}

func pooledReplay(cfg scc.Config, n int, tr *workload.Trace) (makespan float64, finish []float64, counters trace.CoreCounters) {
	var w chipWork
	res := replayChip(cfg, n, tr, &w)
	first, last := workload.Bounds(res)
	for _, r := range res {
		finish = append(finish, r.FinishUs)
	}
	return last - first, finish, w.counters
}

func pooledServe(cfg scc.Config, n int, scfg serve.Config, streams []serve.Stream) (serve.Result, trace.CoreCounters) {
	var w chipWork
	res := serveChip(cfg, n, scfg, streams, &w)
	return res, w.counters
}

// resolveChoice is the choice policy p resolves a call of op through
// dispatchMethods[m] to.
func resolveChoice(p string, plan *algsel.Plan, op string, m, lines int) algsel.Choice {
	_, ch := algsel.Policy{Name: p, Plan: plan}.Resolve(op, algsel.Method(m), lines)
	return ch
}
