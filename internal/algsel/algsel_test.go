package algsel

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rma"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/workload"
)

func TestRegistryShape(t *testing.T) {
	wantOps := []Op{OpAllGather, OpAllReduce, OpBcast, OpGather, OpReduce, OpScatter}
	got := Ops()
	if len(got) != len(wantOps) {
		t.Fatalf("Ops() = %v, want %v", got, wantOps)
	}
	for i, op := range wantOps {
		if got[i] != op {
			t.Fatalf("Ops() = %v, want %v", got, wantOps)
		}
	}
	// Every op wraps both existing stacks.
	for _, op := range wantOps {
		if _, ok := Lookup(op, "oc"); !ok {
			t.Errorf("%s: no one-sided entry", op)
		}
		names := []string{}
		for _, a := range For(op) {
			names = append(names, a.Name)
		}
		if !strings.Contains(strings.Join(names, ","), "twosided") && op != OpBcast {
			t.Errorf("%s: no two-sided entry (have %v)", op, names)
		}
	}
	// The new algorithms that prove the interface generalizes.
	if _, ok := Lookup(OpAllReduce, "rabenseifner"); !ok {
		t.Error("allreduce: rabenseifner not registered")
	}
	if _, ok := Lookup(OpAllGather, "ring"); !ok {
		t.Error("allgather: ring not registered")
	}
	// Registered names resolve through Known; unknown ones don't.
	for _, name := range []string{"oc", "twosided", "rabenseifner", "ring", "binomial"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("nonsense") {
		t.Error(`Known("nonsense") = true`)
	}
}

func TestRegisterPanics(t *testing.T) {
	check := func(name string, a Algorithm) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(a)
	}
	check("duplicate", Algorithm{Op: OpBcast, Name: "oc", Run: func(*Env, Choice, Args) {}})
	check("no run", Algorithm{Op: OpBcast, Name: "newalg"})
	check("no name", Algorithm{Op: OpBcast, Run: func(*Env, Choice, Args) {}})
	check("no MPB owner", Algorithm{Op: OpBcast, Name: "newalg", Run: func(*Env, Choice, Args) {}})
}

func TestChoiceString(t *testing.T) {
	cases := map[string]Choice{
		"oc(k=7,chunk=96)": {Alg: "oc", K: 7, ChunkLines: 96},
		"oc(k=7)":          {Alg: "oc", K: 7},
		"ring(chunk=48)":   {Alg: "ring", ChunkLines: 48},
		"twosided":         {Alg: "twosided"},
	}
	for want, ch := range cases {
		if got := ch.String(); got != want {
			t.Errorf("Choice%+v.String() = %q, want %q", ch, got, want)
		}
	}
}

func TestValidChoice(t *testing.T) {
	base := core.DefaultConfig()
	oc, _ := Lookup(OpAllReduce, "oc")
	if !ValidChoice(base, oc, Choice{Alg: "oc", K: 7, ChunkLines: 96}) {
		t.Error("paper default rejected")
	}
	// Two 96-line buffers + 2·47+2 flags exceed the 250-line budget.
	if ValidChoice(base, oc, Choice{Alg: "oc", K: 47, ChunkLines: 96}) {
		t.Error("k=47 with 96-line chunks accepted (cannot fit occoll flags)")
	}
	ts, _ := Lookup(OpAllReduce, "twosided")
	if !ValidChoice(base, ts, Choice{Alg: "twosided", K: 47, ChunkLines: 9999}) {
		t.Error("two-sided choice rejected (has no MPB layout)")
	}
}

// runEnv executes body on an n-core chip with a fresh Env per core.
func runEnv(t *testing.T, n int, body func(e *Env)) *rma.Chip {
	t.Helper()
	chip := rma.NewChipN(scc.DefaultConfig(), n)
	OnChip(chip, core.DefaultConfig(), body)
	return chip
}

// TestEveryRegisteredAlgorithmRuns executes every registry entry of
// every operation on a small chip and verifies the operation's semantics
// — the registry's core contract: entries of one op are interchangeable.
func TestEveryRegisteredAlgorithmRuns(t *testing.T) {
	const n, lines = 8, 3
	nbytes := lines * scc.CacheLine
	for _, op := range Ops() {
		for _, alg := range For(op) {
			alg := alg
			t.Run(string(op)+"/"+alg.Name, func(t *testing.T) {
				chip := rma.NewChipN(scc.DefaultConfig(), n)
				payloads := make([][]byte, n)
				for i := 0; i < n; i++ {
					payloads[i] = make([]byte, (n+1)*nbytes)
					for j := range payloads[i] {
						payloads[i][j] = byte(i*29 + j*3 + 7)
					}
					chip.Private(i).Write(0, payloads[i])
				}
				args := Args{Root: 0, Addr: 0, Scratch: 1 << 16, Lines: lines, Reduce: collective.SumInt64}
				OnChip(chip, core.DefaultConfig(), func(e *Env) {
					e.Exec(alg, Choice{Alg: alg.Name}, args)
				})
				verifyOp(t, chip, op, n, lines, payloads)
			})
		}
	}
}

// verifyOp checks an operation's defining postcondition.
func verifyOp(t *testing.T, chip *rma.Chip, op Op, n, lines int, payloads [][]byte) {
	t.Helper()
	nbytes := lines * scc.CacheLine
	read := func(core, addr, nb int) []byte {
		b := make([]byte, nb)
		chip.Private(core).Read(b, addr, nb)
		return b
	}
	switch op {
	case OpBcast:
		for i := 0; i < n; i++ {
			if !bytes.Equal(read(i, 0, nbytes), payloads[0][:nbytes]) {
				t.Fatalf("core %d: broadcast payload mismatch", i)
			}
		}
	case OpReduce:
		want := append([]byte(nil), payloads[0][:nbytes]...)
		for i := 1; i < n; i++ {
			collective.SumInt64(want, payloads[i][:nbytes])
		}
		if !bytes.Equal(read(0, 0, nbytes), want) {
			t.Fatal("root: reduce result mismatch")
		}
	case OpAllReduce:
		want := append([]byte(nil), payloads[0][:nbytes]...)
		for i := 1; i < n; i++ {
			collective.SumInt64(want, payloads[i][:nbytes])
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(read(i, 0, nbytes), want) {
				t.Fatalf("core %d: allreduce result mismatch", i)
			}
		}
	case OpScatter:
		for i := 1; i < n; i++ {
			if !bytes.Equal(read(i, i*nbytes, nbytes), payloads[0][i*nbytes:(i+1)*nbytes]) {
				t.Fatalf("core %d: scatter block mismatch", i)
			}
		}
	case OpGather:
		for i := 0; i < n; i++ {
			if !bytes.Equal(read(0, i*nbytes, nbytes), payloads[i][i*nbytes:(i+1)*nbytes]) {
				t.Fatalf("root: gathered block %d mismatch", i)
			}
		}
	case OpAllGather:
		for i := 0; i < n; i++ {
			for b := 0; b < n; b++ {
				if !bytes.Equal(read(i, b*nbytes, nbytes), payloads[b][b*nbytes:(b+1)*nbytes]) {
					t.Fatalf("core %d: allgather block %d mismatch", i, b)
				}
			}
		}
	}
}

// TestEnvReusesInstances pins the Env caching rules: the base
// configuration resolves to the held engine and broadcaster, per-choice
// ones are cached, and the non-default path builds a working engine.
func TestEnvReusesInstances(t *testing.T) {
	runEnv(t, 4, func(e *Env) {
		a := e.OC(Choice{Alg: "oc"})
		if e.OC(Choice{Alg: "oc", K: e.Base.K, ChunkLines: e.Base.BufLines}) != a {
			t.Error("explicit base choice built a second engine")
		}
		b := e.OC(Choice{Alg: "oc", K: 3})
		if b == a {
			t.Error("k=3 choice reused the base engine")
		}
		if e.OC(Choice{Alg: "oc", K: 3}) != b {
			t.Error("k=3 engine not cached")
		}
		if x, err := e.Collectives(); err != nil || x != a {
			t.Errorf("base choice is not the held engine (%v)", err)
		}
		bc := e.Bcaster(Choice{})
		if bc != &e.BC {
			t.Error("base choice is not the held broadcaster")
		}
		if e.Bcaster(Choice{K: 3}) == bc {
			t.Error("k=3 broadcaster reused the base one")
		}
	})
}

// TestRecordArgs pins how a record or batch becomes call arguments: the
// rootless operations take root 0, as their public methods do (a trace
// may carry any root for them), so the api span names the same root on
// every path; the rooted ones keep theirs.
func TestRecordArgs(t *testing.T) {
	for _, op := range Ops() {
		a := recordArgs(op, 5, 64, 128, 3)
		want := 5
		if op == OpAllReduce || op == OpAllGather {
			want = 0
		}
		if a.Root != want || a.Addr != 64 || a.Scratch != 128 || a.Lines != 3 || a.Reduce == nil {
			t.Errorf("%s: %+v, want root %d", op, a, want)
		}
	}
}

// TestRecordRunners drives both record adapters end to end on a small
// chip: a replay mixing blocking and overlapped records of every
// operation through Replayer, and a two-lane serving run through Server.
func TestRecordRunners(t *testing.T) {
	const n = 8
	cfg := scc.DefaultConfig()
	tr := &workload.Trace{}
	for i, op := range workload.Ops() {
		tr.Records = append(tr.Records,
			workload.Record{Op: op, Root: i % n, Lines: 2, DeltaUs: 1},
			workload.Record{Op: op, Root: (i + 3) % n, Lines: 3, ComputeUs: 5})
	}
	l := workload.LayoutFor(tr, n)
	res := make([]workload.Result, n)
	OnChip(rma.NewChipN(cfg, n), core.DefaultConfig(), func(e *Env) {
		res[e.Core().ID()] = workload.Replay(Replayer{E: e}, tr, l, workload.ReplayOptions{})
	})
	if first, last := workload.Bounds(res); !(last > first) {
		t.Errorf("replay spans [%v, %v] µs", first, last)
	}

	scfg := serve.Config{Policy: serve.PolicyWeighted, QueueBound: 8, MaxBatch: 2, MaxBatchLines: 16, Lanes: 2}
	streams := []serve.Stream{serve.Synthetic(serve.SyntheticParams{
		Tenant: "a", Weight: 1, Seed: 3, Count: 12, N: n, Ops: workload.Ops(), Lines: []int{1, 2}, MeanGapUs: 5,
	})}
	sl := serve.LayoutFor(scfg, streams, n)
	board := serve.NewBoard(streams)
	base := core.DefaultConfig()
	base.Channels, base.BufLines = 2, 16
	var rep *serve.Sched
	OnChip(rma.NewChipN(cfg, n), base, func(e *Env) {
		s := serve.Run(Server{E: e, Ctrl: sl.CtrlAddr}, scfg, streams, sl, board, nil)
		if e.Core().ID() == 0 {
			rep = s
		}
	})
	if r := serve.Collect(rep, board); r.Completed == 0 || r.Completed+r.Rejected != r.Offered || r.Batches < 2 {
		t.Errorf("serving run: %+v", r)
	}
}

// TestDispatchSpans pins the api spans of a traced Env: Run and Issue
// each open one span named by the op, carrying the resolved choice, the
// call's lines and root.
func TestDispatchSpans(t *testing.T) {
	chip := rma.NewChipN(scc.DefaultConfig(), 4)
	rec := obs.NewRecorder()
	chip.SetObserver(rec)
	OnChip(chip, core.DefaultConfig(), func(e *Env) {
		e.Run(OpBcast, Generic, Args{Root: 2, Lines: 3})
		e.Issue(OpAllReduce, Args{Lines: 1, Reduce: collective.SumInt64}).Wait()
	})
	var got []string
	for _, ev := range obs.Capture(rec, 4, nil).Events {
		if ev.Core == 1 && (ev.Cat == "api" || ev.Cat == "api.issue") && ev.Kind == obs.KindBegin {
			got = append(got, fmt.Sprintf("%s %s %s %s=%d %s=%d", ev.Cat, ev.Name, ev.Str, ev.A0.Key, ev.A0.Val, ev.A1.Key, ev.A1.Val))
		}
	}
	want := []string{"api bcast ocbcast lines=3 root=2", "api.issue allreduce oc lines=1 root=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("core 1's api spans %q, want %q", got, want)
	}
}

// TestPolicyResolve pins the resolution rules per method: the compat
// defaults, a named override only within its op and (for the one-sided
// methods) family, "auto" from the matching band table, and the
// non-blocking fallback to "oc" for an algorithm without an Issue twin.
func TestPolicyResolve(t *testing.T) {
	cfg := scc.DefaultConfig()
	plan := TuneCached(cfg.Params, cfg.Topology(), 48, core.DefaultConfig())
	cases := []struct {
		policy Policy
		op     Op
		m      Method
		want   string
	}{
		{Policy{}, OpBcast, Generic, "ocbcast"},
		{Policy{}, OpAllReduce, Generic, "hybrid"},
		{Policy{}, OpGather, Generic, "twosided"},
		{Policy{}, OpGather, OneSided, "oc"},
		{Policy{}, OpScatter, Nonblocking, "oc"},
		{Policy{Name: "rabenseifner"}, OpAllReduce, Generic, "rabenseifner"},
		{Policy{Name: "rabenseifner"}, OpAllReduce, OneSided, "oc"}, // two-sided: not for OC methods
		{Policy{Name: "rabenseifner"}, OpBcast, Generic, "ocbcast"}, // not registered for bcast
		{Policy{Name: "ring"}, OpAllGather, Nonblocking, "ring"},
		{Policy{Name: "ocbcast"}, OpBcast, Nonblocking, "oc"}, // no Issue twin
		{Policy{Name: "auto", Plan: plan}, OpAllReduce, Generic, plan.Bands[OpAllReduce][0].Choice.String()},
		{Policy{Name: "auto", Plan: plan}, OpAllReduce, OneSided, plan.OneSidedBands[OpAllReduce][0].Choice.String()},
		{Policy{Name: "auto", Plan: plan}, OpScatter, Generic, "twosided"}, // no modeled algorithm
	}
	for _, tc := range cases {
		a, ch := tc.policy.Resolve(tc.op, tc.m, 1)
		if ch.String() != tc.want || a.Name != ch.Alg || a.Op != tc.op {
			t.Errorf("%+v resolves %s/%d to %s (%s/%s), want %s", tc.policy.Name, tc.op, tc.m, ch, a.Op, a.Name, tc.want)
		}
	}
}
