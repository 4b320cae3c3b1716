package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/scc"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonSpec `json:"end_to_end"`
	PerLayer []jsonSpec `json:"per_layer"`
}

type jsonSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables requires BENCHMARK.json and the metric
// and workload tables of this package to list the same things, both ways.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, listed []jsonSpec, specs []metric, bounded bool) {
		if len(listed) != len(specs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(listed), len(specs))
			return
		}
		for i, m := range specs {
			l := listed[i]
			if l.Name != m.Name || l.Unit != m.Unit || l.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the benchmark %s [%s] %s", kind, i, l.Name, l.Unit, l.Better, m.Name, m.Unit, m.Better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: malformed name, unit %q or direction %q", kind, m.Name, m.Unit, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("%s %s: name used twice", kind, m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (l.Bound == nil || *l.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the benchmark (want equal, in (0, 0.25])", kind, m.Name, l.Bound, m.Bound)
			case !bounded && l.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
			if m.Kind != 'h' && m.Kind != 's' && m.Kind != 'c' {
				t.Errorf("%s %s: kind %q", kind, m.Name, m.Kind)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s] lower")
	}
}

// TestSeedsMakeInputs: the same seed gives byte-identical inputs, another
// seed different ones, on every workload.
func TestSeedsMakeInputs(t *testing.T) {
	for _, w := range workloads {
		a, again, other := w.Generate(7).Bytes(), w.Generate(7).Bytes(), w.Generate(8).Bytes()
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.Name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}

// TestOneOpPerWorkload runs and verifies one op of each workload.
func TestOneOpPerWorkload(t *testing.T) {
	for _, w := range workloads {
		in := w.Generate(1)
		r := in.Run(w.Opts, nil, 0)
		if err := in.Verify(&r); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if r.SimUs <= 0 || r.RefUs <= 0 || in.RefModelUs() <= 0 || r.Host <= 0 {
			t.Errorf("%s: simulated %v µs, reference %v µs, model %v µs, host %v: all must be positive", w.Name, r.SimUs, r.RefUs, in.RefModelUs(), r.Host)
		}
	}
}

// TestOracleBites proves the output checks fail when they should: a wrong
// expected payload, a wrong expected sum, a wrong record count, a drifting
// virtual time and a panic out of Run are all counted as failures.
func TestOracleBites(t *testing.T) {
	w, _ := workloadByName("bcast_oc_48")
	bc := w.Generate(1).(*bcastInput)
	r := bc.Run(w.Opts, nil, 0)
	if err := bc.Verify(&r); err != nil {
		t.Fatalf("a correct broadcast op fails: %v", err)
	}
	warm := r
	bc.image[len(bc.image)/2] ^= 0x01
	if err := bc.Verify(&r); err == nil {
		t.Error("a wrong expected payload byte passes the broadcast oracle")
	}
	bc.image[len(bc.image)/2] ^= 0x01
	warm.SimUs += 0.001
	if err := checkOp(bc, &r, &warm); err == nil {
		t.Error("an op whose simulated_us differs from the warm-up op's passes")
	}
	bad := w.Opts
	bad.K = 1 << 20 // no MPB layout fits: New panics, the op must fail, not the process
	if r := bc.Run(bad, nil, 0); r.Err == nil || bc.Verify(&r) == nil {
		t.Error("a panic out of the library is not counted as a failed op")
	}

	w, _ = workloadByName("allreduce_oc_48")
	ar := w.Generate(1).(*allreduceInput)
	r = ar.Run(w.Opts, nil, 0)
	if err := ar.Verify(&r); err != nil {
		t.Fatalf("a correct allreduce op fails: %v", err)
	}
	ar.want[arPollAddr+8]++
	if err := ar.Verify(&r); err == nil {
		t.Error("a wrong expected sum passes the allreduce oracle")
	}

	w, _ = workloadByName("replay_mix_8")
	rp := w.Generate(1).(*replayInput)
	r = rp.Run(w.Opts, nil, 0)
	if err := rp.Verify(&r); err != nil {
		t.Fatalf("a correct replay op fails: %v", err)
	}
	rp.stats.Records--
	if err := rp.Verify(&r); err == nil {
		t.Error("a replay that lost a record passes the oracle")
	}
}

// smokeProbeCtx is a probe context that makes one batch per loop.
func smokeProbeCtx(n int, topo scc.Topology, t *testing.T) *probeCtx {
	return &probeCtx{
		tr: newTracer(), n: n, topo: topo, cfg: meshConfig(topo), loop: loopBudget{min: 1}, v: values{},
		fail: func(err error) { t.Errorf("probe output check: %v", err) },
	}
}

// TestAnchors: the core probe's 96-line k=7 broadcast and the occoll
// probe's 256-line AllReduce on 48 cores reproduce the goldens pinned in
// BENCH_simperf.json (engine.*.simulated_us), so the probes provably drive
// the protocol paths those goldens pin.
func TestAnchors(t *testing.T) {
	p := smokeProbeCtx(48, scc.SCC(), t)
	probeCore(p)
	probeOccoll(p)
	if got := p.v["core.bcast_us"]; got != 156.594 {
		t.Errorf("core.bcast_us = %v, want the golden 156.594", got)
	}
	if got := p.v["occoll.allreduce_us"]; got != 1617.671 {
		t.Errorf("occoll.allreduce_us = %v, want the golden 1617.671", got)
	}
}

// TestTracedRunSchema makes a minimal traced run (one batch per loop) and
// a minimal timed run, and requires the names they emit to be exactly the
// names the tables list, every value to be a finite number, the obs
// fractions to sum to 1, and the written span file to nest.
func TestTracedRunSchema(t *testing.T) {
	w, _ := workloadByName("bcast_oc_48")
	dir := t.TempDir()
	res, err := runTraced(w, 1, 0, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d traced ops and probes failed: %s", res.Failed, res.Attempted, res.FirstErr)
	}
	requireNames(t, "per-layer", perLayer, res.Values)
	var sum float64
	for _, n := range []string{"compute", "mpb", "mem", "flag", "wait", "other"} {
		sum += res.Values["obs.sim_"+n+"_frac"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("obs.sim_*_frac sum to %v, want 1", sum)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace-bcast_oc_48.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != w.Name || tf.Seed != 1 || tf.GOMAXPROCS < 1 || len(tf.Spans) == 0 {
		t.Errorf("trace header: %+v with %d spans", tf.Workload, len(tf.Spans))
	}
	names := map[string]bool{}
	for i, s := range tf.Spans {
		names[s.Name] = true
		if s.ID != i || s.EndNs < s.StartNs || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent >= 0 {
			if p := tf.Spans[s.Parent]; s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Fatalf("span %d (%s) leaves its parent %d (%s)", i, s.Name, p.ID, p.Name)
			}
		}
	}
	for _, want := range []string{"op", "op.traced", "root.new", "root.stage", "root.run", "root.verify", "root.timeline", "probes", "probe.sim", "probe.harness"} {
		if !names[want] {
			t.Errorf("no span called %q in the trace file", want)
		}
	}
	for i, self := range selfNs(tf.Spans) {
		if self < 0 {
			t.Errorf("span %d (%s) has negative self time %d ns", i, tf.Spans[i].Name, self)
		}
	}

	timed := runTimed(w, 1, time.Millisecond)
	if timed.Failed != 0 || timed.Samples == 0 {
		t.Fatalf("timed run: %d failed, %d samples: %s", timed.Failed, timed.Samples, timed.FirstErr)
	}
	requireNames(t, "end-to-end", endToEnd, timed.Values)
	for _, m := range endToEnd {
		if timed.Values[m.Name] == 0 {
			t.Errorf("end-to-end metric %s is 0; end-to-end metrics must never be", m.Name)
		}
	}
}

func requireNames(t *testing.T, kind string, specs []metric, got values) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range specs {
		listed[m.Name] = true
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s metric %s: listed but not measured (%v)", kind, m.Name, v)
		}
	}
	for name := range got {
		if !listed[name] {
			t.Errorf("%s metric %s: measured but not listed", kind, name)
		}
	}
}

func TestSelfTimeAndQuantiles(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 1, StartNs: 15, EndNs: 20},
		{ID: 3, Parent: 0, StartNs: 50, EndNs: 90},
	}
	if got, want := selfNs(spans), []int64{30, 25, 5, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if m, p90 := median(xs), percentile(xs, 0.9); m != 5.5 || p90 != 9 {
		t.Errorf("median %v, p90 %v; want 5.5 and 9", m, p90)
	}
}

func TestAgreeVerdict(t *testing.T) {
	host := metric{Name: "op_ms_p50", Bound: 0.05, Kind: 'h'}
	exact := metric{Name: "simulated_us", Bound: 0.01, Kind: 's'}
	for _, c := range []struct {
		m    metric
		a, b float64
		e2e  bool
		ok   bool
	}{
		{host, 100, 104, true, true},
		{host, 100, 106, true, false},
		{host, 100, 150, false, true}, // per-layer host numbers are not judged
		{exact, 1377.419, 1377.419, true, true},
		{exact, 1377.419, 1377.420, true, false},
		{exact, 532, 533, false, false},
	} {
		if v, _ := agreeVerdict(c.m, c.a, c.b, c.e2e); (v == "ok") != c.ok {
			t.Errorf("agreeVerdict(%s, %v, %v, e2e=%v) = %q", c.m.Name, c.a, c.b, c.e2e, v)
		}
	}
}
